package dc

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"failtrans/internal/apps/xpilot"
	"failtrans/internal/event"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/recovery"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// flip draws one random bit, then outputs it twice. Consistent recovery
// demands both outputs agree (the paper's Figure 1 coin flip).
type flip struct {
	Phase int
	Coin  uint64
}

func (f *flip) Name() string                  { return "flip" }
func (f *flip) Init(ctx *sim.Ctx) error       { return nil }
func (f *flip) MarshalState() ([]byte, error) { return json.Marshal(f) }
func (f *flip) UnmarshalState(d []byte) error { return json.Unmarshal(d, f) }
func (f *flip) Step(ctx *sim.Ctx) sim.Status {
	ctx.Compute(time.Millisecond)
	switch f.Phase {
	case 0:
		f.Coin = ctx.Rand() % 2
	case 1, 2:
		ctx.Output(fmt.Sprintf("coin=%d", f.Coin))
	default:
		return sim.Done
	}
	f.Phase++
	return sim.Ready
}

// coinConsistent checks the duplicate-tolerant consistency criterion for
// the flip app: all outputs must name the same coin value.
func coinConsistent(outputs []string) bool {
	for _, s := range outputs[1:] {
		if s != outputs[0] {
			return false
		}
	}
	return true
}

func runFlipWithStop(t *testing.T, pol protocol.Policy, stopAt int) (*sim.World, *DC) {
	t.Helper()
	w := sim.NewWorld(41, &flip{})
	d := New(w, pol, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	w.ScheduleStop(0, stopAt)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w, d
}

// TestStopFailureRecoveryConsistent: under every measured protocol, a stop
// failure at every possible point leaves the coin-flip output consistent
// and the run completes.
func TestStopFailureRecoveryConsistent(t *testing.T) {
	for _, pol := range protocol.Measured() {
		// Steps 1..5 span the initial commit, the coin flip, protocol
		// commits and both outputs for every measured protocol.
		for stopAt := 1; stopAt <= 5; stopAt++ {
			w, d := runFlipWithStop(t, pol, stopAt)
			if !w.AllDone() {
				t.Errorf("%s stop@%d: run did not complete (no-orphan constraint)", pol.Name, stopAt)
				continue
			}
			if w.Procs[0].Crashes != 1 {
				t.Errorf("%s stop@%d: crashes = %d", pol.Name, stopAt, w.Procs[0].Crashes)
			}
			if d.Stats.Recoveries != 1 {
				t.Errorf("%s stop@%d: recoveries = %d", pol.Name, stopAt, d.Stats.Recoveries)
			}
			out := w.Outputs[0]
			if len(out) < 2 {
				t.Errorf("%s stop@%d: outputs = %v", pol.Name, stopAt, out)
				continue
			}
			if !coinConsistent(out) {
				t.Errorf("%s stop@%d: inconsistent recovery, outputs %v", pol.Name, stopAt, out)
			}
			// The visible constraint: the outputs must be equivalent
			// to a failure-free run that prints the coin twice.
			legal := []string{out[0], out[0]}
			if eq, complete := recovery.Equivalent(out, legal); !eq || !complete {
				t.Errorf("%s stop@%d: outputs %v not equivalent to %v", pol.Name, stopAt, out, legal)
			}
		}
	}
}

// TestNoProtocolNoConsistency: with a policy that neither commits nor logs,
// some stop failure produces inconsistent output — demonstrating the
// Save-work theorem's "only if" direction.
func TestNoProtocolNoConsistency(t *testing.T) {
	broken := protocol.Policy{Name: "NONE"}
	sawInconsistent := false
	for seed := int64(0); seed < 30 && !sawInconsistent; seed++ {
		w := sim.NewWorld(seed, &flip{})
		d := New(w, broken, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		// Steps: 1 initial commit, 2 flip, 3 first output; the stop
		// fires just before the second output.
		w.ScheduleStop(0, 3)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.Procs[0].Crashes != 1 {
			t.Fatalf("seed %d: crashes = %d, want 1", seed, w.Procs[0].Crashes)
		}
		if len(w.Outputs[0]) >= 2 && !coinConsistent(w.Outputs[0]) {
			sawInconsistent = true
		}
	}
	if !sawInconsistent {
		t.Error("a commit-free, log-free policy should eventually flip the coin differently across a failure")
	}
}

// TestHypervisorRecoversByReplay: the log-everything protocol takes no
// checkpoints beyond the initial one yet recovers consistently by replaying
// its log.
func TestHypervisorRecoversByReplay(t *testing.T) {
	w, d := runFlipWithStop(t, protocol.Hypervisor, 2)
	if !w.AllDone() {
		t.Fatal("run did not complete")
	}
	if got := d.Stats.TotalCheckpoints(); got != 0 {
		t.Errorf("Hypervisor took %d checkpoints, want 0", got)
	}
	if d.Stats.LogRecords == 0 {
		t.Error("Hypervisor must have logged the ND events")
	}
	if !coinConsistent(w.Outputs[0]) {
		t.Errorf("outputs %v inconsistent", w.Outputs[0])
	}
}

// TestRecordNDCopiesValue pins dc's side of the sim.Recovery RecordND
// contract: the value is the caller's scratch, which the next ND event
// overwrites, so the log must keep a copy and replay the bytes as they were
// recorded.
func TestRecordNDCopiesValue(t *testing.T) {
	w := sim.NewWorld(1, &flip{})
	d := New(w, protocol.Hypervisor, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	buf := []byte("recorded")
	if !d.RecordND(p, "rand", buf) {
		t.Fatal("Hypervisor did not log a rand value")
	}
	copy(buf, "CLOBBER!")
	if err := d.Rollback(p); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.SupplyND(p, "rand"); !ok || string(v) != "recorded" {
		t.Errorf("replayed %q, %v; want the recorded bytes", v, ok)
	}
}

// ndWorker does `Rounds` of: one rand draw, one visible output.
type ndWorker struct {
	Rounds int
	I      int
	Acc    uint64
}

func (p *ndWorker) Name() string                  { return "ndworker" }
func (p *ndWorker) Init(ctx *sim.Ctx) error       { return nil }
func (p *ndWorker) MarshalState() ([]byte, error) { return json.Marshal(p) }
func (p *ndWorker) UnmarshalState(d []byte) error { return json.Unmarshal(d, p) }

// ndWorker obeys the one-event-per-step contract: a rand step alternates
// with an output step.
func (p *ndWorker) Step(ctx *sim.Ctx) sim.Status {
	if p.I >= 2*p.Rounds {
		return sim.Done
	}
	if p.I%2 == 0 {
		v := ctx.Rand()
		p.Acc ^= v
	} else {
		ctx.Output(fmt.Sprintf("round %d", p.I/2+1))
	}
	p.I++
	return sim.Ready
}

func runWorker(t *testing.T, pol protocol.Policy) (*sim.World, *DC) {
	t.Helper()
	w := sim.NewWorld(5, &ndWorker{Rounds: 10})
	d := New(w, pol, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("worker did not finish")
	}
	return w, d
}

// TestCommitCounts verifies each protocol's commit pattern on a fixed
// workload of 10 (rand, output) rounds.
func TestCommitCounts(t *testing.T) {
	// CAND: one commit per ND event.
	if _, d := runWorker(t, protocol.CAND); d.Stats.TotalCheckpoints() != 10 {
		t.Errorf("CAND checkpoints = %d, want 10", d.Stats.TotalCheckpoints())
	}
	// CPVS: one commit per visible (no sends here).
	if _, d := runWorker(t, protocol.CPVS); d.Stats.TotalCheckpoints() != 10 {
		t.Errorf("CPVS checkpoints = %d, want 10", d.Stats.TotalCheckpoints())
	}
	// CBNDVS: ND precedes every visible, so same as CPVS here.
	if _, d := runWorker(t, protocol.CBNDVS); d.Stats.TotalCheckpoints() != 10 {
		t.Errorf("CBNDVS checkpoints = %d, want 10", d.Stats.TotalCheckpoints())
	}
	// CAND-LOG doesn't log rand (only input/receives): still 10.
	if _, d := runWorker(t, protocol.CANDLog); d.Stats.TotalCheckpoints() != 10 {
		t.Errorf("CAND-LOG checkpoints = %d, want 10", d.Stats.TotalCheckpoints())
	}
	// Hypervisor logs everything: 0 commits, 10 log records.
	if _, d := runWorker(t, protocol.Hypervisor); d.Stats.TotalCheckpoints() != 0 || d.Stats.LogRecords != 10 {
		t.Errorf("Hypervisor checkpoints/logs = %d/%d, want 0/10", d.Stats.TotalCheckpoints(), d.Stats.LogRecords)
	}
	// COMMIT-ALL commits after every event: 20 events.
	if _, d := runWorker(t, protocol.CommitAll); d.Stats.TotalCheckpoints() != 20 {
		t.Errorf("COMMIT-ALL checkpoints = %d, want 20", d.Stats.TotalCheckpoints())
	}
}

// detWorker emits deterministic visibles only (no ND at all).
type detWorker struct{ ndWorker }

func (p *detWorker) Step(ctx *sim.Ctx) sim.Status {
	if p.I >= p.Rounds {
		return sim.Done
	}
	ctx.Output(fmt.Sprintf("round %d", p.I+1))
	p.I++
	return sim.Ready
}

// TestCBNDVSSkipsWithoutND: with no non-determinism, CBNDVS never commits
// while CPVS still commits before every visible — the refinement the paper
// names.
func TestCBNDVSSkipsWithoutND(t *testing.T) {
	w := sim.NewWorld(5, &detWorker{ndWorker{Rounds: 8}})
	d := New(w, protocol.CBNDVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.TotalCheckpoints() != 0 {
		t.Errorf("CBNDVS checkpoints = %d, want 0 for a deterministic app", d.Stats.TotalCheckpoints())
	}

	w2 := sim.NewWorld(5, &detWorker{ndWorker{Rounds: 8}})
	d2 := New(w2, protocol.CPVS, stablestore.Rio)
	if err := d2.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	if d2.Stats.TotalCheckpoints() != 8 {
		t.Errorf("CPVS checkpoints = %d, want 8", d2.Stats.TotalCheckpoints())
	}
}

// TestSaveWorkHoldsOnFailureFreeTraces: every measured protocol's
// failure-free trace satisfies the Save-work invariant (checker from
// internal/recovery).
func TestSaveWorkHoldsOnFailureFreeTraces(t *testing.T) {
	for _, pol := range protocol.Measured() {
		w, _ := runWorker(t, pol)
		if vs := recovery.CheckSaveWork(w.Trace); len(vs) != 0 {
			t.Errorf("%s violated Save-work: %v", pol.Name, vs[0])
		}
	}
}

// TestNoneProtocolViolatesSaveWork: the broken policy's trace fails the
// checker, confirming the checker has teeth on real traces.
func TestNoneProtocolViolatesSaveWork(t *testing.T) {
	w, _ := runWorker(t, protocol.Policy{Name: "NONE"})
	if vs := recovery.CheckSaveWork(w.Trace); len(vs) == 0 {
		t.Error("commit-free policy should violate Save-work on an ND workload")
	}
}

// --- distributed: a two-process requester/responder pair ---

// requester sends a query containing a random number, awaits the echoed
// answer, outputs it. The answer must match what was sent even across
// failures of either process. One ctx event per step: draw → send →
// receive → output.
type requester struct {
	Rounds int
	I      int
	Phase  int // 0 draw, 1 send, 2 recv, 3 output
	Sent   uint64
	Answer string
}

func (p *requester) Name() string                  { return "requester" }
func (p *requester) Init(ctx *sim.Ctx) error       { return nil }
func (p *requester) MarshalState() ([]byte, error) { return json.Marshal(p) }
func (p *requester) UnmarshalState(d []byte) error { return json.Unmarshal(d, p) }
func (p *requester) Step(ctx *sim.Ctx) sim.Status {
	switch p.Phase {
	case 0:
		if p.I >= p.Rounds {
			return sim.Done
		}
		v := ctx.Rand()
		p.Sent = v % 1000
		p.I++
		p.Phase = 1
	case 1:
		if err := ctx.Send(1, []byte(fmt.Sprintf("%d", p.Sent))); err != nil {
			ctx.Crash(err.Error())
			return sim.Crashed
		}
		p.Phase = 2
	case 2:
		m, ok := ctx.Recv()
		if !ok {
			return sim.WaitMsg
		}
		p.Answer = string(m.Payload)
		p.Phase = 3
	default:
		ctx.Output(fmt.Sprintf("answer %d: %s", p.I, p.Answer))
		p.Phase = 0
	}
	return sim.Ready
}

// responder doubles each query and replies; receive and send are separate
// steps.
type responder struct {
	Seen    int
	Max     int
	Pending int64 // -1 when idle
	ReplyTo int
}

func (p *responder) Name() string                  { return "responder" }
func (p *responder) Init(ctx *sim.Ctx) error       { p.Pending = -1; return nil }
func (p *responder) MarshalState() ([]byte, error) { return json.Marshal(p) }
func (p *responder) UnmarshalState(d []byte) error { return json.Unmarshal(d, p) }
func (p *responder) Step(ctx *sim.Ctx) sim.Status {
	if p.Pending >= 0 {
		if err := ctx.Send(p.ReplyTo, []byte(fmt.Sprintf("%d", p.Pending*2))); err != nil {
			ctx.Crash(err.Error())
			return sim.Crashed
		}
		p.Pending = -1
		return sim.Ready
	}
	if p.Seen >= p.Max {
		return sim.Done
	}
	m, ok := ctx.Recv()
	if !ok {
		return sim.WaitMsg
	}
	var v int64
	fmt.Sscanf(string(m.Payload), "%d", &v)
	p.Pending = v
	p.ReplyTo = m.From
	p.Seen++
	return sim.Ready
}

// checkEcho verifies every answer is exactly double some consistent query
// and answers arrive in round order with duplicates allowed.
func checkEcho(t *testing.T, name string, outputs []string) {
	t.Helper()
	lastRound := 0
	for _, s := range outputs {
		var round int
		var v uint64
		if _, err := fmt.Sscanf(s, "answer %d: %d", &round, &v); err != nil {
			t.Errorf("%s: unparsable output %q", name, s)
			return
		}
		if v%2 != 0 {
			t.Errorf("%s: answer %q is not doubled", name, s)
		}
		if round != lastRound && round != lastRound+1 {
			t.Errorf("%s: round jumped from %d to %d", name, lastRound, round)
		}
		lastRound = round
	}
}

// TestDistributedStopFailures: crash each process in turn, at several
// points, under every measured protocol; the pair must finish with
// consistent output and no orphans.
func TestDistributedStopFailures(t *testing.T) {
	for _, pol := range protocol.Measured() {
		for victim := 0; victim < 2; victim++ {
			for stopAt := 2; stopAt <= 10; stopAt += 2 {
				w := sim.NewWorld(13, &requester{Rounds: 4}, &responder{Max: 4})
				d := New(w, pol, stablestore.Rio)
				if err := d.Attach(); err != nil {
					t.Fatal(err)
				}
				w.ScheduleStop(victim, stopAt)
				w.MaxSteps = 100000
				if err := w.Run(); err != nil {
					t.Fatalf("%s victim=%d stop@%d: %v", pol.Name, victim, stopAt, err)
				}
				if !w.AllDone() {
					t.Errorf("%s victim=%d stop@%d: did not complete (%v/%v)",
						pol.Name, victim, stopAt, w.Procs[0].Status(), w.Procs[1].Status())
					continue
				}
				if w.Procs[victim].Crashes > 0 && d.Stats.Recoveries == 0 {
					t.Errorf("%s victim=%d stop@%d: crash without recovery", pol.Name, victim, stopAt)
				}
				checkEcho(t, fmt.Sprintf("%s victim=%d stop@%d", pol.Name, victim, stopAt), w.Outputs[0])
			}
		}
	}
}

// TestTwoPhaseCommitsPeers: under CPV-2PC every process commits when one
// does a visible event.
func TestTwoPhaseCommitsPeers(t *testing.T) {
	w := sim.NewWorld(13, &requester{Rounds: 3}, &responder{Max: 3})
	d := New(w, protocol.CPV2PC, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.TwoPhaseRounds != 3 {
		t.Errorf("2PC rounds = %d, want 3 (one per visible)", d.Stats.TwoPhaseRounds)
	}
	if d.Stats.Checkpoints[0] != 3 || d.Stats.Checkpoints[1] != 3 {
		t.Errorf("checkpoints = %v, want [3 3]", d.Stats.Checkpoints)
	}
}

// TestDependentTwoPhaseScope: CBNDV-2PC commits only processes with
// relevant uncommitted non-determinism. The responder is deterministic
// apart from its receives... which carry the requester's ND; both end up in
// the dependent set when the requester's rand is uncommitted.
func TestDependentTwoPhaseScope(t *testing.T) {
	w := sim.NewWorld(13, &requester{Rounds: 3}, &responder{Max: 3})
	d := New(w, protocol.CBNDV2PC, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("did not finish")
	}
	// The requester (who outputs) must commit at each visible; rounds
	// happen, and the total stays bounded by the all-processes variant.
	if d.Stats.TwoPhaseRounds == 0 {
		t.Error("CBNDV-2PC should coordinate at visibles")
	}
	if d.Stats.Checkpoints[0] == 0 {
		t.Error("requester never committed")
	}
}

// TestDependentSetIndexOrder: a coordinated commit's members are the trigger
// first, when it has uncommitted non-determinism, then the processes it
// depends on in process-index order, whatever order the dependency map
// yields them in; a dependency on a process that committed since is pruned.
func TestDependentSetIndexOrder(t *testing.T) {
	progs := make([]sim.Program, 7)
	for i := range progs {
		progs[i] = &idleProg{}
	}
	w := sim.NewWorld(1, progs...)
	d := New(w, protocol.CBNDV2PC, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[2]
	ps := &d.procs[p.Index]
	want := []int{2, 0, 1, 3, 4, 5}
	for range 50 {
		ps.ndSince = true
		ps.deps = map[int]int{6: d.procs[6].epoch - 1}
		for _, q := range []int{5, 0, 4, 1, 3} {
			ps.deps[q] = d.procs[q].epoch
		}
		var got []int
		for _, q := range d.dependentSet(p) {
			got = append(got, q.Index)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("dependent set = %v, want %v", got, want)
		}
		if _, ok := ps.deps[6]; ok {
			t.Fatal("a dependency on a process that committed since was not pruned")
		}
	}
}

// TestDCDiskSlowerThanRio: same run, disk medium costs more virtual time.
func TestDCDiskSlowerThanRio(t *testing.T) {
	run := func(m stablestore.Medium) time.Duration {
		w := sim.NewWorld(5, &ndWorker{Rounds: 20})
		d := New(w, protocol.CPVS, m)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w.Clock
	}
	rio := run(stablestore.Rio)
	disk := run(stablestore.Disk)
	if disk <= rio {
		t.Errorf("disk run (%v) should be slower than Rio (%v)", disk, rio)
	}
	if disk < 20*8*time.Millisecond {
		t.Errorf("disk run %v should include 20 sync commits of >=8ms", disk)
	}
}

// TestRepeatedFailures: several stop failures in one run still end
// consistently.
func TestRepeatedFailures(t *testing.T) {
	for _, pol := range []protocol.Policy{protocol.CPVS, protocol.CANDLog, protocol.CBNDV2PC} {
		w := sim.NewWorld(77, &requester{Rounds: 5}, &responder{Max: 5})
		d := New(w, pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, 3)
		w.ScheduleStop(0, 9)
		w.ScheduleStop(1, 6)
		w.MaxSteps = 100000
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Errorf("%s: did not complete after 3 failures", pol.Name)
			continue
		}
		if d.Stats.Recoveries != 3 {
			t.Errorf("%s: recoveries = %d, want 3", pol.Name, d.Stats.Recoveries)
		}
		checkEcho(t, pol.Name, w.Outputs[0])
	}
}

// TestCheckpointSizesIncremental: consecutive commits of a mostly-unchanged
// state dirty few pages (the SetContents diff path).
func TestCheckpointSizesIncremental(t *testing.T) {
	w := sim.NewWorld(5, &ndWorker{Rounds: 50})
	d := New(w, protocol.CPVS, stablestore.Rio)
	d.PageSize = 256
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	perCommit := float64(d.Stats.CommitBytes) / float64(d.Stats.TotalCheckpoints())
	// The JSON state is well under one 256-byte page... allow a couple
	// of pages plus the register file, but not the whole state each
	// time if the state were large. Mostly this asserts the diffing
	// path is live.
	if perCommit > 4*256+64 {
		t.Errorf("average commit wrote %.0f bytes; diffing seems broken", perCommit)
	}
}

// TestDisableRecovery leaves the process dead.
func TestDisableRecovery(t *testing.T) {
	w := sim.NewWorld(41, &flip{})
	d := New(w, protocol.CPVS, stablestore.Rio)
	d.DisableRecovery = true
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	w.ScheduleStop(0, 2)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Procs[0].Dead() {
		t.Error("process should stay dead with DisableRecovery")
	}
}

// TestHooks: commit and recovery hooks fire, and the recovery hook sees the
// rolled-back process still at its crash position: a stop executes nothing,
// so that is where the crashing step began.
func TestHooks(t *testing.T) {
	w := sim.NewWorld(41, &flip{})
	d := New(w, protocol.CPVS, stablestore.Rio)
	var commits, recoveries int
	hookSteps := -1
	d.CommitHook = func(p *sim.Proc, label string) { commits++ }
	d.RecoveryHook = func(p *sim.Proc, reason string) {
		recoveries++
		hookSteps = p.Steps
	}
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	w.ScheduleStop(0, 2)
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	crashAt := -1
	for {
		if recoveries == 0 {
			crashAt = w.Procs[0].Steps
		}
		more, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if commits == 0 || recoveries != 1 {
		t.Errorf("hooks: commits=%d recoveries=%d", commits, recoveries)
	}
	if hookSteps != crashAt || crashAt < 2 {
		t.Errorf("recovery hook saw Steps %d, want the crash position %d (>= the stop's 2)", hookSteps, crashAt)
	}
}

// TestStatsAccounting sanity-checks byte/time counters.
func TestStatsAccounting(t *testing.T) {
	_, d := runWorker(t, protocol.CPVS)
	if d.Stats.CommitBytes <= 0 || d.Stats.CommitTime <= 0 {
		t.Errorf("stats not accumulated: %+v", d.Stats)
	}
	if d.Stats.TotalCheckpoints() != d.Stats.Checkpoints[0] {
		t.Error("TotalCheckpoints mismatch")
	}
}

// TestEventKindsInDCTrace: commits appear in the trace as Commit events.
func TestEventKindsInDCTrace(t *testing.T) {
	w, d := runWorker(t, protocol.CPVS)
	commits := 0
	for _, e := range w.Trace.Events {
		if e.Kind == event.Commit {
			commits++
		}
	}
	// The trace additionally holds the initial commit, which Attach
	// excludes from the measured stats.
	if commits != d.Stats.TotalCheckpoints()+1 {
		t.Errorf("trace commits = %d, stats+initial = %d", commits, d.Stats.TotalCheckpoints()+1)
	}
}

// TestOptimisticLoggingBatchesFlushes: the OPTIMISTIC policy buffers log
// records and forces them only at escape points, so its total log time is
// far below HYPERVISOR's per-record syncs on disk.
func TestOptimisticLoggingBatchesFlushes(t *testing.T) {
	run := func(pol protocol.Policy) (time.Duration, *DC) {
		// Bursts of five ND events per visible: the async variant
		// forces them as one sequential write.
		w := sim.NewWorld(5, &burstWorker{ndWorker{Rounds: 20}})
		d := New(w, pol, stablestore.Disk)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Fatal("did not finish")
		}
		return d.Stats.LogTime, d
	}
	syncT, syncD := run(protocol.Hypervisor)
	asyncT, asyncD := run(protocol.OptimisticLogging)
	if syncD.Stats.LogRecords != asyncD.Stats.LogRecords {
		t.Fatalf("log records differ: %d vs %d", syncD.Stats.LogRecords, asyncD.Stats.LogRecords)
	}
	if asyncT >= syncT {
		t.Errorf("async log time %v should beat per-record sync %v", asyncT, syncT)
	}
}

// TestOptimisticLoggingRecovery: a stop failure with an unflushed log tail
// still recovers consistently — the lost tail's events re-execute live and
// nothing visible depended on them (flush-before-visible).
func TestOptimisticLoggingRecovery(t *testing.T) {
	for stopAt := 1; stopAt <= 5; stopAt++ {
		w := sim.NewWorld(41, &flip{})
		d := New(w, protocol.OptimisticLogging, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, stopAt)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Fatalf("stop@%d: did not finish", stopAt)
		}
		if !coinConsistent(w.Outputs[0]) {
			t.Errorf("stop@%d: inconsistent outputs %v", stopAt, w.Outputs[0])
		}
	}
}

// TestOptimisticLoggingDistributed: the requester/responder pair under
// OPTIMISTIC with crashes on both sides.
func TestOptimisticLoggingDistributed(t *testing.T) {
	for victim := 0; victim < 2; victim++ {
		w := sim.NewWorld(13, &requester{Rounds: 4}, &responder{Max: 4})
		d := New(w, protocol.OptimisticLogging, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(victim, 6)
		w.MaxSteps = 200000
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Fatalf("victim %d: did not finish (%v/%v)", victim, w.Procs[0].Status(), w.Procs[1].Status())
		}
		checkEcho(t, "OPTIMISTIC", w.Outputs[0])
	}
}

// burstWorker draws five rands per visible output.
type burstWorker struct{ ndWorker }

func (p *burstWorker) Step(ctx *sim.Ctx) sim.Status {
	if p.I >= 6*p.Rounds {
		return sim.Done
	}
	if p.I%6 < 5 {
		p.Acc ^= ctx.Rand()
	} else {
		ctx.Output(fmt.Sprintf("round %d", p.I/6+1))
	}
	p.I++
	return sim.Ready
}

// corruptible is a program whose consistency check fails after a flag is
// set, for the check-before-commit tests.
type corruptible struct {
	ndWorker
	Corrupt bool
}

func (c *corruptible) MarshalState() ([]byte, error) { return json.Marshal(c) }
func (c *corruptible) UnmarshalState(d []byte) error { return json.Unmarshal(d, c) }
func (c *corruptible) CheckConsistency() error {
	if c.Corrupt {
		return fmt.Errorf("corruptible: poisoned state")
	}
	return nil
}

func (c *corruptible) Step(ctx *sim.Ctx) sim.Status {
	if c.I == 7 && ctx.Fault("corrupt.site") == sim.HeapBitFlip {
		c.Corrupt = true
	}
	return c.ndWorker.Step(ctx)
}

type corruptInjector struct{ fired bool }

func (f *corruptInjector) At(p *sim.Proc, site string) sim.FaultKind {
	if f.fired {
		return sim.NoFault
	}
	f.fired = true
	return sim.HeapBitFlip
}

// TestCheckBeforeCommitRefusesCorruptState: with the §2.6 mitigation on,
// the corrupted state is never committed — the process crashes at the
// refused commit and recovery rolls back to clean state.
func TestCheckBeforeCommitRefusesCorruptState(t *testing.T) {
	run := func(mitigate bool) (*sim.World, *DC) {
		w := sim.NewWorld(5, &corruptible{ndWorker: ndWorker{Rounds: 10}})
		w.Faults = &corruptInjector{}
		d := New(w, protocol.CPVS, stablestore.Rio)
		d.CheckBeforeCommit = mitigate
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w, d
	}
	// Without the mitigation the poisoned state is committed and
	// survives recovery forever (here: the run completes, silently
	// corrupt).
	w, d := run(false)
	if d.ChecksFailed != 0 {
		t.Error("checks should not run when disabled")
	}
	if w.Procs[0].Prog.(*corruptible).Corrupt != true {
		t.Fatal("corruption never injected")
	}
	// With it, the first commit after the corruption is refused, the
	// process rolls back to the last good state, the one-shot fault does
	// not re-fire, and the run completes clean.
	w2, d2 := run(true)
	if d2.ChecksFailed == 0 {
		t.Fatal("the refused commit never happened")
	}
	if w2.Procs[0].Crashes == 0 {
		t.Error("refused commit should crash the process")
	}
	if !w2.AllDone() {
		t.Fatal("run did not complete after the refused commit")
	}
	if w2.Procs[0].Prog.(*corruptible).Corrupt {
		t.Error("corruption survived despite check-before-commit")
	}
}

// TestDeterministicWithRecovery: identical seeds and stop schedules produce
// byte-identical outcomes — recovery does not break the simulator's
// reproducibility guarantee.
func TestDeterministicWithRecovery(t *testing.T) {
	run := func() ([]string, int, time.Duration) {
		w := sim.NewWorld(99, &requester{Rounds: 5}, &responder{Max: 5})
		d := New(w, protocol.CBNDVS, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, 7)
		w.ScheduleStop(1, 12)
		w.MaxSteps = 200000
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w.GlobalOutputs(), d.Stats.TotalCheckpoints(), w.Clock
	}
	o1, c1, t1 := run()
	o2, c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("nondeterministic recovery: ckpts %d/%d clocks %v/%v", c1, c2, t1, t2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("output lengths differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("output %d differs: %q vs %q", i, o1[i], o2[i])
		}
	}
}

// sigWorker takes one signal mid-run and outputs it; used to verify the
// Targon/32 discipline: everything except signals is logged, and signals
// force a commit (the paper's description of the system).
type sigWorker struct{ ndWorker }

func (p *sigWorker) Step(ctx *sim.Ctx) sim.Status {
	if sig, ok := ctx.TakeSignal(); ok {
		ctx.Output("sig:" + sig)
		return sim.Ready
	}
	if p.I >= 2*p.Rounds {
		return sim.Done
	}
	if p.I%2 == 0 {
		in, ok := ctx.Input()
		if ok {
			p.Acc ^= uint64(in[0])
		}
	} else {
		ctx.Output(fmt.Sprintf("round %d", p.I/2+1))
		ctx.Sleep(time.Millisecond)
		p.I++
		return sim.Sleeping
	}
	p.I++
	return sim.Ready
}

func TestTargonCommitsOnSignals(t *testing.T) {
	w := sim.NewWorld(5, &sigWorker{ndWorker{Rounds: 6}})
	w.Procs[0].Ctx().Inputs = [][]byte{{1}, {2}, {3}, {4}, {5}, {6}}
	w.DeliverSignal(0, "SIGUSR1", 2*time.Millisecond)
	d := New(w, protocol.Targon32, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Targon/32 logs input and receives; the only commit must be the one
	// the signal forced.
	if got := d.Stats.TotalCheckpoints(); got != 1 {
		t.Errorf("checkpoints = %d, want exactly 1 (the signal)", got)
	}
	if d.Stats.LogRecords == 0 {
		t.Error("inputs should have been logged")
	}
}

// TestSignalRecoveryConsistent: a stop failure after an unlogged signal
// commit still recovers consistently.
func TestSignalRecoveryConsistent(t *testing.T) {
	for stopAt := 2; stopAt <= 12; stopAt += 2 {
		w := sim.NewWorld(5, &sigWorker{ndWorker{Rounds: 4}})
		w.Procs[0].Ctx().Inputs = [][]byte{{1}, {2}, {3}, {4}}
		w.DeliverSignal(0, "SIGUSR1", time.Millisecond)
		d := New(w, protocol.Targon32, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, stopAt)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Errorf("stop@%d: did not finish", stopAt)
		}
	}
}

// fdHog opens Count files, crashing if an open fails — the paper's
// fixed-ND resource exhaustion.
type fdHog struct {
	Count  int
	Opened int
}

func (p *fdHog) Name() string                  { return "fdhog" }
func (p *fdHog) Init(ctx *sim.Ctx) error       { return nil }
func (p *fdHog) MarshalState() ([]byte, error) { return json.Marshal(p) }
func (p *fdHog) UnmarshalState(d []byte) error { return json.Unmarshal(d, p) }
func (p *fdHog) Step(ctx *sim.Ctx) sim.Status {
	if p.Opened >= p.Count {
		ctx.Output(fmt.Sprintf("opened %d", p.Opened))
		return sim.Done
	}
	if _, err := ctx.Syscall("open", []byte(fmt.Sprintf("f%d", p.Opened)), []byte{1}); err != nil {
		ctx.Crash(err.Error())
		return sim.Crashed
	}
	p.Opened++
	return sim.Ready
}

// TestExpandResourcesOnCrash: §2.6's "increase resource limits after a
// failure" converts the fixed-ND open failure into one the re-execution
// survives. Without the mitigation the run crash-loops and is abandoned.
func TestExpandResourcesOnCrash(t *testing.T) {
	run := func(expand bool) (*sim.World, int) {
		w := sim.NewWorld(5, &fdHog{Count: kernel.MaxOpenFiles + 10})
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		d := New(w, protocol.CPVS, stablestore.Rio)
		crashes := 0
		d.RecoveryHook = func(p *sim.Proc, reason string) {
			crashes++
			if crashes > 3 {
				d.DisableRecovery = true
			}
		}
		if expand {
			d.ExpandResourcesOnCrash = func(p *sim.Proc) {
				k.ExpandResources(p.Index)
			}
		}
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w, crashes
	}
	// Without expansion: deterministic open failure, crash loop, abandon.
	w, crashes := run(false)
	if w.AllDone() {
		t.Error("run should not complete against a hard fd limit")
	}
	if crashes < 3 {
		t.Errorf("expected a crash loop, got %d crashes", crashes)
	}
	// With expansion: one crash, limit doubled, run completes.
	w2, crashes2 := run(true)
	if !w2.AllDone() {
		t.Error("resource expansion should let the run complete")
	}
	if crashes2 != 1 {
		t.Errorf("crashes = %d, want exactly 1", crashes2)
	}
	if got := w2.Outputs[0][len(w2.Outputs[0])-1]; got != fmt.Sprintf("opened %d", kernel.MaxOpenFiles+10) {
		t.Errorf("final output = %q", got)
	}
}

// TestMsgDepsBounded: the message-dependency snapshots that no receive can
// apply any more are swept, so the map tracks the live ones instead of
// every dependency-carrying send. At the scale the fig8_sweep benchmark
// runs xpilot (40, as bench.BuildWorld builds it), CPV-2PC and CBNDV-2PC
// each wrote 10 800 snapshots when none was ever dropped, and none of them
// named a current epoch by the end of the run.
func TestMsgDepsBounded(t *testing.T) {
	const scale = 40
	for _, pol := range []protocol.Policy{protocol.CPV2PC, protocol.CBNDV2PC} {
		w := sim.NewWorld(11, xpilot.Fleet(75*scale)...)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		for i := 1; i <= 3; i++ {
			w.Procs[i].Ctx().Inputs = xpilot.KeyScript(strings.Repeat("wad w d ", 5*scale))
		}
		w.RecordTrace = false
		d := New(w, pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		peak, sends := 0, int64(0)
		for {
			more, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			peak = max(peak, len(d.msgDeps))
		}
		for _, p := range w.Procs {
			sends += p.SendSeq
		}
		t.Logf("%s: %d sends, msgDeps peak %d, %d at the end", pol.Name, sends, peak, len(d.msgDeps))
		if peak > 2*msgDepsSweepMin {
			t.Errorf("%s: msgDeps peaked at %d snapshots, want at most %d", pol.Name, peak, 2*msgDepsSweepMin)
		}
	}
}
