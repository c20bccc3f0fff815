package faults

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/dc"
	"failtrans/internal/kernel"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
	"failtrans/internal/recovery"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
	"failtrans/internal/statemachine"
)

// AppFaultTypes lists Table 1's seven fault types in the paper's order.
var AppFaultTypes = []sim.FaultKind{
	sim.StackBitFlip,
	sim.HeapBitFlip,
	sim.DestReg,
	sim.InitFault,
	sim.DeleteBranch,
	sim.DeleteInstr,
	sim.OffByOne,
}

// oneShot fires once at the n'th visit of any matching fault site. A fork
// resuming from a prefix snapshot seeds visits with the snapshot's count so
// the fault fires at the same absolute visit as a from-scratch run.
type oneShot struct {
	kind   sim.FaultKind
	fireAt int
	visits int
	// fired marks activation explicitly: firedAt records p.Steps, which
	// can legitimately be 0 (activation on the process's first event) and
	// so cannot double as the fired flag.
	fired     bool
	firedAt   int // p.Steps at activation
	firedStep int // world step count at activation (steps-replayed metric)
}

// At is consulted at every fault-site visit of every injection run.
//
//failtrans:hotpath
func (f *oneShot) At(p *sim.Proc, site string) sim.FaultKind {
	if f.fired {
		return sim.NoFault
	}
	f.visits++
	if f.visits < f.fireAt {
		return sim.NoFault
	}
	f.fired = true
	f.firedAt = p.Steps
	f.firedStep = p.World.StepCount()
	return f.kind
}

// RunResult is the outcome of a single fault-injection run.
type RunResult struct {
	Crashed bool
	// Violation reports a commit between fault activation and the
	// crash — the Lose-work violation Table 1 counts.
	Violation bool
	// WrongOutput reports a run that completed with output differing
	// from the fault-free run (no crash, silent corruption).
	WrongOutput bool
	// Recovered reports the end-to-end check: with the fault suppressed
	// on re-execution, did recovery complete the run? A crashed Table 1 run
	// answers it by running on past its crash.
	Recovered bool
	// Propagated reports (Table 2) a kernel fault that corrupted
	// application-visible state before the kernel panicked.
	Propagated bool
	// Timeline.Commits is read-only once the run is classified: every run
	// index whose key draws the same injection cell shares it.
	Timeline recovery.FaultTimeline
	// Rec is the run's forensic ledger record, filled by the worker only
	// when the study carries a Ledger; the campaign acceptor appends it in
	// run order and returns it to the pool. Excluded from JSON so studies
	// with and without a ledger attached stay byte-comparable.
	Rec *ledger.Record `json:"-"`
	// conv is set on a Table 1 run that converged on a snapshot, and shared
	// by every run index its cell serves.
	conv *convergence
}

// convergence is one converged cell's account: the template steps it
// inherited instead of executing, and whether the acceptor has counted
// it. Only the acceptor's goroutine reads or writes counted, so the cell's
// first accepted demand counts it, at every worker count alike.
type convergence struct {
	skipped int
	counted bool
}

// TypeResult aggregates one fault type's runs.
type TypeResult struct {
	Kind        sim.FaultKind
	Runs        int
	Crashes     int
	Violations  int // commit after activation, among crashes
	WrongOutput int
}

// ViolationPct is the Table 1 cell: percent of crashes that committed
// after fault activation.
func (t TypeResult) ViolationPct() float64 {
	if t.Crashes == 0 {
		return 0
	}
	return 100 * float64(t.Violations) / float64(t.Crashes)
}

// AppStudy is the Table 1 experiment configuration.
type AppStudy struct {
	App string // "nvi" or "postgres"
	// CrashTarget is how many crashes to collect per fault type (the
	// paper used ~50).
	CrashTarget int
	// MaxRunsPerType bounds the search for crashing runs.
	MaxRunsPerType int
	Policy         protocol.Policy
	Seed           int64
	// SessionLen scales the workload.
	SessionLen int
	// CheckBeforeCommit enables the paper's §2.6 mitigation: refuse
	// commits that fail the application's consistency check.
	CheckBeforeCommit bool
	// Parallel fans injection runs out over this many workers; 0 or 1
	// runs serially. Results are byte-identical either way: runs are
	// dispatched speculatively but accepted strictly in serial run order,
	// stopping at exactly the run the serial loop would have (see
	// internal/campaign).
	Parallel int
	// Snapshots serves injection runs from a prefix-snapshot cache: one
	// template run per study executes the clean session, capturing world
	// snapshots keyed by fault-site visit count; each injection run forks
	// the snapshot below its fire point and resumes, skipping the clean
	// prefix. On is the production path (NewAppStudy sets it and only tests
	// clear it). Off, every run starts from the zero snapshot — a world
	// built from scratch, no Fork involved — which is the reference the
	// equivalence matrix (internal/bench/matrix_test.go) holds the fork
	// engine byte-identical to.
	Snapshots bool
	// COW is vestigial: every fork is a copy-on-write fork of a sealed
	// world. Nothing reads it; benchmark/tables.go still assigns it.
	COW bool
	// WallClock, if set, supplies wall-clock nanoseconds for the fork
	// latency histogram. It is injected by the bench/cmd layers; the
	// deterministic core this study belongs to cannot call time.Now
	// itself.
	WallClock func() int64
	// CampaignObs, if non-nil, receives per-worker campaign counters.
	CampaignObs *obs.CampaignMetrics
	// Ledger, if non-nil, receives one forensic record per injection run,
	// appended from the campaign's ordered accept callback — strictly in
	// serial run order, on the calling goroutine — so the ledger bytes are
	// identical for any worker count. Records carry only logical run
	// coordinates (step positions, virtual time), which forking preserves,
	// so they are also identical with Snapshots on or off.
	Ledger *ledger.Writer
	// RecordHook, if non-nil, also receives every accepted run's record (in
	// serial run order, before the record returns to the pool). The
	// two-phase veto campaign mines phase 1's machine through it without
	// any file round-trip.
	RecordHook func(*ledger.Record)
	// Veto, if non-nil, arms dc's commit-veto hook with a mined
	// dangerous-path policy: before every policy-driven commit the run
	// locates itself in the mined machine's commit-count space (the same
	// CommitStateKey/ActStateKey coordinates the miner uses) and the
	// commit is deferred when the policy marks that state doomed. Veto-off
	// studies are byte-identical to pre-veto ones — the hook is never
	// installed, and mined pre-activation states are never doomed (every
	// activation grants its source state an uncolorable escape edge), so
	// the shared snapshot template needs no veto of its own.
	Veto *statemachine.VetoPolicy
}

// NewAppStudy returns the paper's configuration for the given app.
func NewAppStudy(app string) *AppStudy {
	return &AppStudy{
		App:            app,
		CrashTarget:    50,
		MaxRunsPerType: 400,
		Policy:         protocol.CPVS,
		Seed:           1,
		SessionLen:     400,
		Snapshots:      true,
	}
}

// buildWorld constructs a fresh instrumented world for one run.
func (s *AppStudy) buildWorld(seed int64) (*sim.World, error) {
	switch s.App {
	case "nvi":
		e := nvi.New("study.txt", NviInitial())
		e.ThinkTime = 0       // the paper's crash tests used non-interactive nvi
		e.RecoveryFile = true // per-keystroke syscalls, ~10x postgres's rate
		w := sim.NewWorld(seed, e)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = nvi.Script(NviSession(seed, s.SessionLen))
		return w, nil
	case "postgres":
		db := postgres.New("study.dat")
		w := sim.NewWorld(seed, db)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = postgres.Script(PostgresSession(seed, s.SessionLen))
		return w, nil
	default:
		return nil, fmt.Errorf("faults: unknown app %q", s.App)
	}
}

// fireBase is the first eligible fire point, in fault-site visits: the
// paper skips the first few visits so faults land in steady-state
// execution, not in startup.
const fireBase = 5

// fireSpan is the width of the fire-point draw window. It scales with the
// session but never collapses below one, so key is total for every
// SessionLen >= 1 (SessionLen/2 alone is zero for a one-step session, and
// Intn(0) panics).
func (s *AppStudy) fireSpan() int {
	span := s.SessionLen / 2
	if span < 1 {
		span = 1
	}
	return span
}

// fireHorizon is the deepest fault-site visit any injector can still fire
// at — the maximum key draw. The snapshot template stops capturing
// past it; deriving both from fireSpan keeps the draw window and the
// template horizon from drifting apart.
func (s *AppStudy) fireHorizon() int { return fireBase + s.fireSpan() - 1 }

// key derives Table 1 run index run's key for kind. The run's injection
// seed draws its fire point, uniform over [fireBase, fireHorizon], and
// nothing else, so the key keeps the fire point and drops the seed.
func (s *AppStudy) key(kind sim.FaultKind, run int) RunKey {
	r := newSplitmix((s.Seed*100000 + int64(run)) ^ 0x5deece66d)
	return RunKey{Study: table1, App: s.App, Protocol: s.Policy.Name, Kind: kind, Seed: s.Seed,
		FireAt: int64(fireBase + r.Intn(s.fireSpan()))}
}

// noteReplay accounts one activated run's re-executed clean prefix: the
// steps from the run's resume point (0 from scratch, the snapshot's step
// count for a fork) to fault activation.
func (s *AppStudy) noteReplay(inj *oneShot, baseSteps int) {
	if s.CampaignObs == nil || !inj.fired {
		return
	}
	s.CampaignObs.Snapshot.AddReplay(inj.firedStep - baseSteps)
}

// noteCOW accounts one finished fork's copy-on-write cost: segment pages
// privatized by the recovery layer plus files privatized by the kernel
// (counted as pages too — both are first-touch copy units), and the bytes
// moved.
func (s *AppStudy) noteCOW(w *sim.World, d *dc.DC) {
	if s.CampaignObs == nil || d == nil {
		return
	}
	pages, bytes := d.CowStats()
	if k, ok := w.OS.(*kernel.Kernel); ok {
		pages += k.CowFiles
		bytes += k.CowBytes
	}
	if pages > 0 || bytes > 0 {
		s.CampaignObs.Snapshot.AddCOW(pages, bytes)
	}
}

// finishRun classifies a completed injection run (everything but the
// end-to-end recovery check) from where its session ended: for a run that
// crashed, at its first crash.
func (s *AppStudy) finishRun(end sessionEnd, inj *oneShot, clean []string) RunResult {
	var res RunResult
	if !inj.fired {
		return res // fault never activated: discard
	}
	res.Timeline = recovery.FaultTimeline{
		Commits:    end.commits,
		Activation: inj.firedAt,
		Crash:      end.steps,
	}
	if !end.dead {
		// Completed despite the fault: silent wrong output?
		res.WrongOutput = !slices.Equal(end.outputs, clean)
		return res
	}
	res.Crashed = true
	res.Violation = res.Timeline.CommitAfterActivation()
	return res
}

// armVeto installs the study's commit-veto policy on one run's DC. The
// closure tracks the run's position in the mined machine's commit-count
// space from the same commits slice the CommitHook fills: after n commits
// with no activation the run is at CommitStateKey(n); after activation it
// is at ActStateKey(k, kind, n-k) with k the commits strictly before the
// activation step — exactly how the miner places ledger records, so the
// policy's verdicts transfer.
func (s *AppStudy) armVeto(d *dc.DC, inj *oneShot, commits *[]int) {
	if s.Veto == nil {
		return
	}
	d.CommitVeto = func(p *sim.Proc, label string) bool {
		n := len(*commits)
		if !inj.fired {
			return s.Veto.CommitUnsafe(ledger.CommitStateKey(n))
		}
		k := 0
		for _, c := range *commits {
			if c < inj.firedAt {
				k++
			}
		}
		return s.Veto.CommitUnsafe(ledger.ActStateKey(k, inj.kind.String(), n-k))
	}
}

// ledgerRecord renders one finished injection run as a forensic record.
// Every field is a logical coordinate of the simulated run — process step
// positions, world step counts, virtual time — all of which World.Fork
// preserves, so a record is identical whether the run executed from
// scratch or from a fork of a snapshot. The physical counts that DO differ
// by mode (steps actually re-executed, fork latencies) stay in
// obs.SnapshotMetrics.
func (s *AppStudy) ledgerRecord(k RunKey, end sessionEnd, inj *oneShot, res RunResult) *ledger.Record {
	r := s.record(k, end)
	commits := end.commits
	if inj.fired {
		r.Activation = inj.firedAt
		r.PrefixSteps = inj.firedStep
	}
	r.CommitN = len(commits)
	r.Commits = append(r.Commits[:0], commits...)
	switch {
	case !inj.fired:
		r.Outcome = ledger.Inert
	case res.Crashed:
		r.Outcome = ledger.Crashed
		r.Crash = end.steps
		r.LoseWork = res.Violation
		r.Recovered = res.Recovered
		last := 0
		for _, c := range commits {
			if c <= end.steps {
				last = c
			}
		}
		r.RollbackDepth = end.steps - last
		for i, c := range commits {
			if c >= inj.firedAt && c <= end.steps {
				if r.ViolFirst < 0 {
					r.ViolFirst = i
				}
				r.ViolN++
			}
		}
	case res.WrongOutput:
		r.Outcome = ledger.WrongOutput
		r.SaveWork = true
	default:
		r.Outcome = ledger.Completed
	}
	return r
}

// armInjection configures d as an injection run's DC is until its fault
// activates — and so as the template's must be: the study's commit check,
// and a CommitHook appending each commit's process step position to
// *commits. Recovery stays on: a run goes on past its crash.
func (s *AppStudy) armInjection(d *dc.DC, commits *[]int) {
	d.CheckBeforeCommit = s.CheckBeforeCommit
	d.CommitHook = func(p *sim.Proc, label string) {
		*commits = append(*commits, p.Steps)
	}
}

// open yields the world one run starts from and its recovery layer: a fork
// of snap's template, or — for the zero snapshot — a world built and
// attached from scratch. arm sets the run's DC flags and hooks (a fork
// inherits its template's flags but never its hooks). From scratch it runs
// before Attach, because the "initial" commit Attach takes must reach the
// CommitHook: a template's snap.commits recorded it the same way. The
// scratch branch never forks, so a Snapshots-off study stays an
// independent oracle for the fork engine.
func (s *AppStudy) open(snap *prefixSnapshot, inj sim.FaultInjector, arm func(*dc.DC)) (*sim.World, *dc.DC, error) {
	if snap.world != nil {
		w, err := s.forkSnap(snap)
		if err != nil {
			return nil, nil, err
		}
		d, err := armFork(w, inj, arm)
		return w, d, err
	}
	w, err := s.buildWorld(s.Seed)
	if err != nil {
		return nil, nil, err
	}
	w.RecordTrace = false
	w.Faults = inj
	d := dc.New(w, s.Policy, stablestore.Rio)
	arm(d)
	if err := d.Attach(); err != nil {
		return nil, nil, err
	}
	return w, d, nil
}

// runOne executes the Table 1 run k names: start from the deepest snapshot
// before its fire point, with a one-shot injector seeded with the
// snapshot's visit count and the snapshot's commit history prepended; run
// under the study protocol until the session ends or the run converges on
// a later snapshot (converge), whose suffix it then inherits; record the
// timeline, classify it against the clean run's output. A crash ends the
// measured session — its end is captured as the crash rolls back — but not
// the run: it re-executes with the one-shot injector quiet ("suppressing the
// fault activation during recovery"), and recovery succeeds if the run then
// completes without looping on crashes. The result is byte-identical for
// every snapshot that qualifies, the zero one included, and whether or not
// the run converges.
func (s *AppStudy) runOne(k RunKey, clean []string, cache *prefixCache) (RunResult, error) {
	var res RunResult
	from := cache.before(k.FireAt)
	snap := &cache.snaps[from]
	inj := &oneShot{kind: k.Kind, fireAt: int(k.FireAt), visits: int(snap.at)}
	commits := append([]int(nil), snap.commits...)
	var crash *sessionEnd
	w, d, err := s.open(snap, inj, func(d *dc.DC) {
		s.armInjection(d, &commits)
		// Templates run veto-free (pre-activation states are never doomed,
		// so a veto would have deferred nothing anyway); each run arms the
		// study's policy over its full commit history. A one-shot injector
		// stays fired across rollback, so post-recovery commits keep
		// consulting the activated chain.
		s.armVeto(d, inj, &commits)
		giveUpOnCrashLoop(d, func(p *sim.Proc) {
			end := endOf(p.World, d, commits)
			end.dead = true
			crash = &end
		})
	})
	if err != nil {
		return res, err
	}
	met, err := cache.converge(w, inj, from)
	if err != nil {
		return res, err
	}
	s.noteReplay(inj, snap.steps)
	s.noteCOW(w, d)
	end := endOf(w, d, commits)
	var conv *convergence
	switch {
	case crash != nil:
		end = *crash
	case met != nil:
		end = cache.end.inherit(w, commits, met)
		conv = &convergence{skipped: end.worldSteps - met.steps}
	}
	res = s.finishRun(end, inj, clean)
	res.conv = conv
	if res.Crashed {
		res.Recovered = w.AllDone()
	}
	if s.records() {
		res.Rec = s.ledgerRecord(k, end, inj, res)
	}
	return res, nil
}

// injectionCell is one RunKey of Table 1: the unit the study executes. A
// run is a pure function of its key (TestRunDependsOnlyOnKey), and a kind's
// run indexes draw keys that differ only in FireAt, with replacement from
// fireSpan() of them, so most indexes repeat a key an earlier index already
// drew. The cell executes on first demand, under once, and serves every
// demand from what it stored; a worker that draws a cell another is still
// executing waits on once instead of forking a second world for it.
type injectionCell struct {
	once sync.Once
	// res is the cell's outcome. res.Rec is the master record: it never
	// reaches accept, so acceptLedger's ledger.Put cannot recycle it under
	// a later demand.
	res RunResult
	err error
}

// demand returns the cell's result as one run index's own: the shared
// RunResult with a pooled copy of the master record for accept to stamp,
// append and recycle.
func (c *injectionCell) demand(run func() (RunResult, error), m *obs.CampaignMetrics) (RunResult, error) {
	executed := false
	c.once.Do(func() {
		executed = true
		c.res, c.err = run()
	})
	if m != nil {
		if executed {
			m.Cells.Add(1)
		} else {
			m.Reused.Add(1)
		}
	}
	res := c.res
	if master := res.Rec; master != nil {
		rec := ledger.Get()
		commits := append(rec.Commits, master.Commits...)
		*rec = *master
		rec.Commits = commits
		res.Rec = rec
	}
	return res, c.err
}

// Run executes the study for every fault type through runStudy. Each fault
// type gets a once-table with one injectionCell per fire point, born and
// dropped with the type's campaign, so what executes is the distinct keys
// its run indexes draw, not the indexes. One template run's prefix-snapshot
// cache serves every cell of every fault type (the clean prefix is
// fault-type-independent); the cache is immutable once built, so parallel
// workers fork it freely.
func (s *AppStudy) Run() ([]TypeResult, error) {
	out := make([]TypeResult, len(AppFaultTypes))
	for i, kind := range AppFaultTypes {
		out[i].Kind = kind
	}
	err := s.runStudy(
		func(*sim.World) (*prefixCache, error) { return s.buildPrefixCache() },
		func(kind sim.FaultKind, clean *sim.World, cache *prefixCache) func(int) (RunResult, error) {
			cells := make([]injectionCell, s.fireSpan())
			return func(run int) (RunResult, error) {
				k := s.key(kind, run)
				return cells[k.FireAt-fireBase].demand(func() (RunResult, error) {
					return s.runOne(k, clean.Outputs[0], cache)
				}, s.CampaignObs)
			}
		},
		func(i int, res RunResult) {
			tr := &out[i]
			tr.Runs++
			if res.WrongOutput {
				tr.WrongOutput++
			}
			if res.Crashed {
				tr.Crashes++
				if res.Violation {
					tr.Violations++
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
