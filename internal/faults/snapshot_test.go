package faults

import (
	"bytes"
	"hash/fnv"
	"slices"
	"testing"

	"failtrans/internal/dc"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/statemachine"
)

// studyBytes runs one Table 1 study with a ledger and campaign metrics
// attached and returns its JSON, its ledger bytes and its campaign metrics.
func studyBytes(t *testing.T, s *AppStudy) (string, []byte, *obs.CampaignMetrics) {
	t.Helper()
	var buf bytes.Buffer
	s.Ledger = ledger.NewWriter(&buf)
	s.CampaignObs = obs.NewCampaignMetrics(max(s.Parallel, 1))
	rs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ledger.Err(); err != nil {
		t.Fatal(err)
	}
	return asJSON(t, rs), buf.Bytes(), s.CampaignObs
}

// matchesScratch holds one study configuration to the Snapshots-off oracle,
// which builds every run from scratch and so never forks or converges: the
// oracle's study JSON and ledger bytes must hash (FNV-64a, JSON then ledger)
// to digest; with snapshots on, at Parallel 1 and 4, they must be identical
// to the oracle's; both worker counts must converge the same cells on a
// snapshot, some of them; and the serial campaign forks one world per
// executed cell.
func matchesScratch(t *testing.T, mk func() *AppStudy, digest uint64) {
	t.Helper()
	oracle := mk()
	oracle.Snapshots = false
	wantJSON, wantLedger, m := studyBytes(t, oracle)
	if sn := &m.Snapshot; sn.Forks != 0 || sn.Converged != 0 {
		t.Fatalf("the Snapshots-off oracle forked %d worlds and converged %d cells", sn.Forks, sn.Converged)
	}
	h := fnv.New64a()
	h.Write([]byte(wantJSON))
	h.Write(wantLedger)
	if got := h.Sum64(); got != digest {
		t.Errorf("oracle study digest %016x, want %016x", got, digest)
	}
	var converged [2]int64
	for i, workers := range []int{1, 4} {
		s := mk()
		s.Parallel = workers
		gotJSON, gotLedger, m := studyBytes(t, s)
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
		if cells := m.Cells.Load(); workers == 1 && sn.Forks != cells {
			t.Errorf("serial campaign forked %d worlds for %d executed cells, want one each", sn.Forks, cells)
		}
		converged[i] = sn.Converged
	}
	if converged[0] == 0 || converged[0] != converged[1] {
		t.Errorf("converged cells at parallel 1 and 4: %v, want equal and > 0", converged)
	}
}

// TestAppStudySnapshotMatchesScratch is the snapshot engine's acceptance
// bar: Table 1 must be byte-identical with snapshots off, and with snapshots
// on under a serial and a parallel campaign, prefix forks and suffix
// convergence included. Each case also pins the oracle's bytes by digest, so
// a change that moves the run bodies of both paths alike still shows. The
// small legs run under the race detector, where Parallel 4's runs compare
// themselves against the frozen templates concurrently. The full leg is the
// paper's scale — both applications, 50 crashes per fault type, under CPVS
// and CBNDVS-LOG, as ftbench runs them — and skips under -race, where it
// would dominate the suite; CI runs it in a step of its own.
func TestAppStudySnapshotMatchesScratch(t *testing.T) {
	for _, c := range []struct {
		app    string
		digest uint64
	}{
		{"nvi", 0x06e6b14ca0576a1c},
		{"postgres", 0xe7549af7519bc41a},
	} {
		t.Run("small/"+c.app, func(t *testing.T) {
			matchesScratch(t, func() *AppStudy { return smallStudy(c.app) }, c.digest)
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
				matchesScratch(t, func() *AppStudy {
					s := NewAppStudy(c.app)
					s.Policy = c.pol
					s.MaxRunsPerType = 12 * s.CrashTarget
					return s
				}, c.digest)
			})
		}
	})
}

// TestVetoedStudyDoesNotConverge: a run under an armed veto steers its
// commits by its own activation history, which the template lacks, so a
// vetoed study keeps no template end and none of its runs converge — even
// under a policy that vetoes nothing.
func TestVetoedStudyDoesNotConverge(t *testing.T) {
	s := smallStudy("nvi")
	s.Veto = &statemachine.VetoPolicy{}
	if _, _, m := studyBytes(t, s); m.Snapshot.Converged != 0 {
		t.Errorf("vetoed study converged %d cells", m.Snapshot.Converged)
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

// TestOSStudySnapshotMatchesScratch is the Table 2 equivalent of the
// acceptance bar.
func TestOSStudySnapshotMatchesScratch(t *testing.T) {
	mk := func(snapshots bool, workers int) *OSStudy {
		o := NewOSStudy("nvi")
		o.CrashTarget = 3
		o.MaxRunsPerType = 20
		o.SessionLen = 120
		o.Snapshots = snapshots
		o.Parallel = workers
		return o
	}
	got, err := mk(false, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := asJSON(t, got)
	rs, err := mk(true, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if j := asJSON(t, rs); j != want {
		t.Errorf("OS snapshot run diverged from scratch:\n got %s\nwant %s", j, want)
	}
	rs, err = mk(true, 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if j := asJSON(t, rs); j != want {
		t.Errorf("OS parallel snapshot run diverged from scratch:\n got %s\nwant %s", j, want)
	}
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
