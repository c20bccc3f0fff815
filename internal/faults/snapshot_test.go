package faults

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"strconv"
	"testing"
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
	"failtrans/internal/statemachine"
)

// runTable1 and runTable2 run a study configuration as Table 1 or Table 2.
func runTable1(s *AppStudy) (any, error) { return s.Run() }
func runTable2(s *AppStudy) (any, error) { return (&OSStudy{s}).Run() }

// studyBytes runs one study through run with a ledger and campaign metrics
// attached and returns its JSON, its ledger bytes and its campaign metrics.
func studyBytes(t *testing.T, s *AppStudy, run func(*AppStudy) (any, error)) (string, []byte, *obs.CampaignMetrics) {
	t.Helper()
	var buf bytes.Buffer
	s.Ledger = ledger.NewWriter(&buf)
	s.CampaignObs = obs.NewCampaignMetrics(max(s.Parallel, 1))
	rs, err := run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ledger.Err(); err != nil {
		t.Fatal(err)
	}
	return asJSON(t, rs), buf.Bytes(), s.CampaignObs
}

// matchesScratch holds one study configuration, run as Table 1 or Table 2
// by run, to the Snapshots-off oracle, which builds every run from scratch
// and so never forks, converges or rejoins: the oracle's study JSON and
// ledger bytes must hash (FNV-64a, JSON then ledger) to digest; with
// snapshots on, at Parallel 1 and 4, they must be identical to the
// oracle's; both worker counts must converge the same runs exactly on a
// snapshot and rejoin the same runs up to offsets; and a serial Table 1
// campaign forks one world per executed cell. It returns the serial
// campaign's snapshot metrics and the oracle's ledger.
func matchesScratch(t *testing.T, mk func() *AppStudy, run func(*AppStudy) (any, error), digest uint64) (*obs.SnapshotMetrics, []byte) {
	t.Helper()
	oracle := mk()
	oracle.Snapshots = false
	wantJSON, wantLedger, m := studyBytes(t, oracle, run)
	if sn := &m.Snapshot; sn.Forks != 0 || sn.Converged != 0 || sn.Rejoined != 0 {
		t.Fatalf("the Snapshots-off oracle forked %d worlds, converged %d runs and rejoined %d", sn.Forks, sn.Converged, sn.Rejoined)
	}
	h := fnv.New64a()
	h.Write([]byte(wantJSON))
	h.Write(wantLedger)
	if got := h.Sum64(); got != digest {
		t.Errorf("oracle study digest %016x, want %016x", got, digest)
	}
	var serial *obs.SnapshotMetrics
	for _, workers := range []int{1, 4} {
		s := mk()
		s.Parallel = workers
		gotJSON, gotLedger, m := studyBytes(t, s, run)
		sn := &m.Snapshot
		if gotJSON != wantJSON {
			t.Errorf("parallel %d: snapshot study diverged from scratch:\n got %s\nwant %s", workers, gotJSON, wantJSON)
		}
		if !bytes.Equal(gotLedger, wantLedger) {
			t.Errorf("parallel %d: snapshot ledger diverged from scratch (%d vs %d bytes)", workers, len(gotLedger), len(wantLedger))
		}
		if sn.Snapshots == 0 || sn.Forks == 0 {
			t.Errorf("parallel %d: snapshot path not exercised: snapshots=%d forks=%d", workers, sn.Snapshots, sn.Forks)
		}
		if cells := m.Cells.Load(); workers == 1 && cells > 0 && sn.Forks != cells {
			t.Errorf("serial campaign forked %d worlds for %d executed cells, want one each", sn.Forks, cells)
		}
		if serial == nil {
			serial = sn
		} else if sn.Converged != serial.Converged || sn.Rejoined != serial.Rejoined {
			t.Errorf("converged and rejoined runs at parallel 1: %d, %d; at parallel %d: %d, %d; want equal",
				serial.Converged, serial.Rejoined, workers, sn.Converged, sn.Rejoined)
		}
	}
	t.Logf("converged=%d rejoined=%d steps-skipped=%d", serial.Converged, serial.Rejoined, serial.StepsSkipped)
	return serial, wantLedger
}

// fullStudy is the paper's scale as ftbench runs it: 50 crashes per fault
// type, searched for over at most 600 runs per type.
func fullStudy(pol protocol.Policy, app string) func() *AppStudy {
	return func() *AppStudy {
		s := NewAppStudy(app)
		s.Policy = pol
		s.MaxRunsPerType = 12 * s.CrashTarget
		return s
	}
}

// TestAppStudySnapshotMatchesScratch is the snapshot engine's acceptance
// bar: Table 1 must be byte-identical with snapshots off, and with snapshots
// on under a serial and a parallel campaign, prefix forks, suffix
// convergence and rejoins included. Each case also pins the oracle's bytes
// by digest, so a change that moves the run bodies of both paths alike
// still shows. The small legs run under the race detector, where Parallel
// 4's runs compare themselves against the frozen templates concurrently.
// The full leg is the paper's scale — both applications, 50 crashes per
// fault type, under CPVS and CBNDVS-LOG, as ftbench runs them — where some
// cells converge and every recovered crashed cell rejoins; it skips under
// -race, where it would dominate the suite; CI runs it in a step of its
// own.
func TestAppStudySnapshotMatchesScratch(t *testing.T) {
	for _, c := range []struct {
		app    string
		digest uint64
	}{
		{"nvi", 0x06e6b14ca0576a1c},
		{"postgres", 0xe7549af7519bc41a},
	} {
		t.Run("small/"+c.app, func(t *testing.T) {
			if sn, _ := matchesScratch(t, func() *AppStudy { return smallStudy(c.app) }, runTable1, c.digest); sn.Converged == 0 {
				t.Error("no cell converged")
			}
		})
	}
	t.Run("full", func(t *testing.T) {
		if raceDetector {
			t.Skip("full scale under the race detector")
		}
		if testing.Short() {
			t.Skip("full scale")
		}
		for _, c := range []struct {
			pol    protocol.Policy
			app    string
			digest uint64
		}{
			{protocol.CPVS, "nvi", 0xe89e3f8435edd3c6},
			{protocol.CPVS, "postgres", 0x942545975ddb0886},
			{protocol.CBNDVSLog, "nvi", 0x256de61cbefcf692},
			{protocol.CBNDVSLog, "postgres", 0x41d10cce08c64e87},
		} {
			t.Run(c.pol.Name+"/"+c.app, func(t *testing.T) {
				sn, lg := matchesScratch(t, fullStudy(c.pol, c.app), runTable1, c.digest)
				if sn.Converged == 0 || sn.Rejoined == 0 {
					t.Errorf("converged %d cells and rejoined %d, want both > 0", sn.Converged, sn.Rejoined)
				}
				if recovered := recoveredCells(t, lg); sn.Rejoined != recovered {
					t.Errorf("rejoined %d cells, want every one of the %d recovered crashed cells", sn.Rejoined, recovered)
				}
			})
		}
	})
}

// recoveredCells counts the distinct Table 1 cells, one per kind and fire
// point, whose run crashed and recovered in ledger lg.
func recoveredCells(t *testing.T, lg []byte) int64 {
	t.Helper()
	recs, err := ledger.ReadAll(bytes.NewReader(lg))
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		kind string
		at   int64
	}
	cells := make(map[cell]bool)
	for _, r := range recs {
		if r.Outcome == ledger.Crashed && r.Recovered {
			cells[cell{r.Kind, r.FireAt}] = true
		}
	}
	return int64(len(cells))
}

// TestVetoedStudyDoesNotConverge: a run under an armed veto steers its
// commits by its own activation history, which the template lacks, so a
// vetoed study keeps no template end and none of its runs converges or
// rejoins — even under a policy that vetoes nothing.
func TestVetoedStudyDoesNotConverge(t *testing.T) {
	s := smallStudy("nvi")
	s.Veto = &statemachine.VetoPolicy{}
	if _, _, m := studyBytes(t, s, runTable1); m.Snapshot.Converged != 0 || m.Snapshot.Rejoined != 0 {
		t.Errorf("vetoed study converged %d cells and rejoined %d", m.Snapshot.Converged, m.Snapshot.Rejoined)
	}
}

// TestAppStudySnapshotTimelines compares individual runs, not just the
// aggregate: the fault timeline (commit positions, activation, crash) each
// run reports must match between a run from the zero snapshot (built from
// scratch) and a fork-served run.
func TestAppStudySnapshotTimelines(t *testing.T) {
	s := smallStudy("nvi")
	clean, cache := table1Inputs(t, s)
	scratch := &prefixCache{snaps: make([]prefixSnapshot, 1)}
	if len(cache.snaps) < 3 {
		t.Fatalf("template captured only %d snapshots", len(cache.snaps))
	}
	compared := 0
	for _, kind := range []sim.FaultKind{sim.HeapBitFlip, sim.DeleteBranch, sim.OffByOne} {
		for run := 0; run < 10; run++ {
			k := s.key(kind, run)
			want, err := s.runOne(k, clean, scratch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.runOne(k, clean, cache)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := asJSON(t, got), asJSON(t, want); g != w {
				t.Errorf("%v run %d: fork-served run diverged:\n got %s\nwant %s",
					kind, run, g, w)
			}
			if want.Crashed {
				compared++
			}
		}
	}
	if compared < 4 {
		t.Fatalf("only %d crashing runs compared", compared)
	}
}

// TestSnapshotForkIsolation: two forks of the same snapshot serve different
// faults without bleeding state into each other or the template, and the
// template still forks a clean continuation afterwards.
func TestSnapshotForkIsolation(t *testing.T) {
	s := smallStudy("nvi")
	clean, cache := table1Inputs(t, s)
	snap := &cache.snaps[len(cache.snaps)/2]

	// Two different faults from one snapshot, interleaved with a repeat of
	// the first: run 1 and run 3 must agree exactly despite run 2.
	r1, err := s.runOne(s.key(sim.HeapBitFlip, 2), clean, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.runOne(s.key(sim.DeleteBranch, 2), clean, cache); err != nil {
		t.Fatal(err)
	}
	r3, err := s.runOne(s.key(sim.HeapBitFlip, 2), clean, cache)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := asJSON(t, r1), asJSON(t, r3); a != b {
		t.Errorf("repeat of the same fork-served run diverged:\n got %s\nwant %s", b, a)
	}

	// The template snapshot still forks a clean, fault-free continuation.
	w, _, err := s.open(snap, nil, func(*dc.DC) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(w.Outputs[0], clean) {
		t.Errorf("clean continuation from template snapshot diverged from clean run")
	}
}

// TestOSStudySnapshotMatchesScratch is Table 2's acceptance bar, the same as
// Table 1's: study JSON and ledger bytes identical to the Snapshots-off
// oracle at Parallel 1 and 4, with the oracle's bytes pinned by digest, for
// both applications at test scale and at the paper's scale under CPVS and
// CBNDVS-LOG. Table 2 runs do not converge exactly (the injection never
// leaves them on the template before they crash), but recovered ones rejoin
// it up to offsets; the full leg skips under -race.
func TestOSStudySnapshotMatchesScratch(t *testing.T) {
	check := func(t *testing.T, mk func() *AppStudy, digest uint64) {
		if sn, _ := matchesScratch(t, mk, runTable2, digest); sn.Rejoined == 0 {
			t.Error("no run rejoined the template")
		}
	}
	for _, c := range []struct {
		app    string
		digest uint64
	}{
		{"nvi", 0x92caedebc6689334},
		{"postgres", 0x94e231fe5e904a8d},
	} {
		t.Run("small/"+c.app, func(t *testing.T) {
			check(t, func() *AppStudy {
				s := NewOSStudy(c.app).AppStudy
				s.CrashTarget = 3
				s.MaxRunsPerType = 20
				s.SessionLen = 120
				return s
			}, c.digest)
		})
	}
	t.Run("full", func(t *testing.T) {
		if raceDetector {
			t.Skip("full scale under the race detector")
		}
		if testing.Short() {
			t.Skip("full scale")
		}
		for _, c := range []struct {
			pol    protocol.Policy
			app    string
			digest uint64
		}{
			{protocol.CPVS, "nvi", 0x0b2d15669dace1ec},
			{protocol.CPVS, "postgres", 0x57dc5ece2dc54286},
			{protocol.CBNDVSLog, "nvi", 0xa89e16f4ca563fc7},
			{protocol.CBNDVSLog, "postgres", 0x2e5b3993427a56dd},
		} {
			t.Run(c.pol.Name+"/"+c.app, func(t *testing.T) { check(t, fullStudy(c.pol, c.app), c.digest) })
		}
	})
}

// TestSnapshotReplayAccounting: the steps-replayed counters
// (faults.steps_replayed_per_run in benchmark/) must show forks
// re-executing well under half the prefix steps a from-scratch campaign
// replays (a >= 2x bar; the snapshot interval targets ~10x).
func TestSnapshotReplayAccounting(t *testing.T) {
	replayPerRun := func(snapshots bool) float64 {
		s := smallStudy("nvi")
		s.Snapshots = snapshots
		s.CampaignObs = obs.NewCampaignMetrics(1)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		steps, runs := s.CampaignObs.Snapshot.ReplaySnapshot()
		if runs == 0 {
			t.Fatal("no activated injection runs accounted")
		}
		return float64(steps) / float64(runs)
	}
	scratch := replayPerRun(false)
	snap := replayPerRun(true)
	if snap*2 > scratch {
		t.Errorf("steps replayed per run: snapshot %.1f vs scratch %.1f, want >= 2x reduction",
			snap, scratch)
	}
	t.Logf("steps replayed per activated run: scratch=%.1f snapshot=%.1f (%.1fx)",
		scratch, snap, scratch/snap)
}

// clockToy is a one-process program that consumes its scripted inputs, one
// per step, emitting every third. With readClock set it reads the clock from
// input clockFrom on and sleeps to the next 10 ms boundary: its schedule
// then depends on absolute time, so a run whose clock is shifted diverges
// from the template's.
type clockToy struct {
	Done      int
	readClock bool
}

const clockFrom = 12

func (c *clockToy) Name() string               { return "clocktoy" }
func (c *clockToy) Init(*sim.Ctx) error        { return nil }
func (c *clockToy) Fork() (sim.Program, error) { n := *c; return &n, nil }
func (c *clockToy) MarshalState() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, uint64(c.Done)), nil
}
func (c *clockToy) UnmarshalState(b []byte) error {
	c.Done = int(binary.LittleEndian.Uint64(b))
	return nil
}
func (c *clockToy) Step(ctx *sim.Ctx) sim.Status {
	if _, ok := ctx.Input(); !ok {
		if c.readClock {
			ctx.Now()
		}
		return sim.Done
	}
	c.Done++
	ctx.Compute(time.Millisecond)
	if c.Done%3 == 0 {
		ctx.Output("in " + strconv.Itoa(c.Done))
	}
	if c.readClock && c.Done >= clockFrom {
		const tick = 10 * time.Millisecond
		ctx.Sleep(tick - ctx.Now()%tick)
		return sim.Sleeping
	}
	return sim.Ready
}

// TestRejoinGuardReadsNoClock: a run that a stop crashes early, and that
// recovery puts back on the template, rejoins it up to offsets only when the
// template's suffix reads no clock. clockToy's template reads the clock past
// the stop, so its run never rejoins with nonzero offsets; without the clock
// reads it does. Either way the session end the run reports — its own, or
// the template's shifted by the offsets — is the from-scratch run's.
func TestRejoinGuardReadsNoClock(t *testing.T) {
	for _, readClock := range []bool{false, true} {
		world := func() (*sim.World, error) {
			w := sim.NewWorld(1, &clockToy{readClock: readClock})
			w.RecordTrace = false
			w.Procs[0].Ctx().Inputs = make([][]byte, 24)
			return w, dc.New(w, protocol.CPVS, stablestore.Rio).Attach()
		}
		// The stop lands before clockFrom's input and rolls back past it.
		stop := func(w *sim.World) { w.ScheduleStop(0, 14) }

		oracle, err := world()
		if err != nil {
			t.Fatal(err)
		}
		stop(oracle)
		if err := oracle.Run(); err != nil {
			t.Fatal(err)
		}
		want := endOf(oracle, oracle.Recovery.(*dc.DC), nil)

		s := &AppStudy{}
		tw, err := world()
		if err != nil {
			t.Fatal(err)
		}
		cache, err := s.runTemplate(tw, nil, func(*dc.DC) {}, new([]int),
			func(w *sim.World) int64 { return int64(w.StepCount()) }, func(int64) int64 { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := s.open(&cache.snaps[0], nil, func(*dc.DC) {})
		if err != nil {
			t.Fatal(err)
		}
		stop(w)
		met, off, err := cache.converge(w, 0, func() bool { return true }, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := endOf(w, w.Recovery.(*dc.DC), nil)
		if met != nil {
			e := cache.end
			got.steps, got.worldSteps, got.clock = e.steps+off.Proc, e.worldSteps+off.Steps, e.clock+off.Clock
			got.outputs = append(got.outputs, e.outputs[len(e.outputs)-(len(want.outputs)-len(got.outputs)):]...)
		}
		if w.Procs[0].Crashes != 1 {
			t.Fatalf("readClock %v: the run crashed %d times, want once", readClock, w.Procs[0].Crashes)
		}
		switch rejoined := met != nil && !off.Zero(); {
		case readClock && rejoined:
			t.Errorf("a template that reads the clock past the rejoin was rejoined at offsets %+v", off)
		case !readClock && (!rejoined || off.Clock == 0):
			t.Errorf("the run rejoined %v at offsets %+v, want a rejoin with its clock shifted", rejoined, off)
		}
		if got.steps != want.steps || got.worldSteps != want.worldSteps || got.clock != want.clock ||
			!slices.Equal(got.outputs, want.outputs) {
			t.Errorf("readClock %v: the run ended at steps %d/%d, clock %v, output %q; from scratch at %d/%d, %v, %q",
				readClock, got.steps, got.worldSteps, got.clock, got.outputs, want.steps, want.worldSteps, want.clock, want.outputs)
		}
	}
}
