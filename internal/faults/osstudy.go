package faults

import (
	"fmt"
	"sync"
	"time"

	"failtrans/internal/campaign"
	"failtrans/internal/dc"
	"failtrans/internal/kernel"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// osFaultWindow maps each kernel fault type to the latency between fault
// activation inside the kernel and the eventual kernel panic — the window
// during which buggy kernel execution can propagate into application
// state. The durations follow each bug class's nature: an uninitialized
// pointer or corrupted stack usually traps the kernel almost immediately
// (a stop failure), while a flipped heap bit or a deleted branch can let
// the kernel limp along serving corrupted results.
var osFaultWindow = map[sim.FaultKind]time.Duration{
	sim.StackBitFlip: 200 * time.Microsecond,
	sim.HeapBitFlip:  3 * time.Millisecond,
	sim.DestReg:      1 * time.Millisecond,
	sim.InitFault:    500 * time.Microsecond,
	sim.DeleteBranch: 5 * time.Millisecond,
	sim.DeleteInstr:  2500 * time.Microsecond,
	sim.OffByOne:     1500 * time.Microsecond,
}

// scribbleProbability is the chance that one buggy kernel execution (one
// corrupted syscall) also scribbles on the application's memory.
const scribbleProbability = 0.01

// OSTypeResult aggregates one kernel fault type's runs.
type OSTypeResult struct {
	Kind    sim.FaultKind
	Runs    int
	Crashes int
	// FailedRecoveries counts crashes the application could not recover
	// from (Table 2's metric).
	FailedRecoveries int
	// Propagations counts faults that corrupted application-visible
	// state before the kernel panicked.
	Propagations int
}

// FailurePct is the Table 2 cell.
func (t OSTypeResult) FailurePct() float64 {
	if t.Crashes == 0 {
		return 0
	}
	return 100 * float64(t.FailedRecoveries) / float64(t.Crashes)
}

// OSStudy is the Table 2 experiment: inject faults into the running kernel
// and measure how often the application fails to recover.
type OSStudy struct {
	*AppStudy
	cleanOnce sync.Once
	cleanDur  time.Duration
	cleanErr  error
}

// NewOSStudy returns the paper's configuration for the given app.
func NewOSStudy(app string) *OSStudy {
	s := NewAppStudy(app)
	return &OSStudy{AppStudy: s}
}

// memoryScribble arms a one-shot corruption of application memory while
// the kernel fault window is open — a buggy kernel writing through a wild
// pointer into user pages. It fires at the application's next fault site.
type memoryScribble struct {
	armed bool
	// fired marks the scribble explicitly: the step at which it lands can
	// legitimately be 0, so a recorded step cannot double as the flag.
	fired bool
}

//failtrans:hotpath
func (m *memoryScribble) At(p *sim.Proc, site string) sim.FaultKind {
	if !m.armed || m.fired {
		return sim.NoFault
	}
	m.fired = true
	return sim.HeapBitFlip
}

// armOSVeto installs the study's commit-veto policy on one OS-study run's
// DC. Table 2 records carry only a commit count (no positions), so its
// mined machines place every commit before the activation; the runtime
// tracker mirrors that approximation: before injection the run sits at
// CommitStateKey(n) for n commits so far, after injection at
// ActStateKey(n, kind, 0). Counts come from d.Stats, which both the
// from-scratch and the forked path carry (fillOSRecord uses the same
// source), keeping the veto mode-invariant.
func (o *OSStudy) armOSVeto(d *dc.DC, kind sim.FaultKind, injected *bool) {
	if o.Veto == nil {
		return
	}
	d.CommitVeto = func(p *sim.Proc, label string) bool {
		n := d.Stats.TotalCheckpoints()
		if !*injected {
			return o.Veto.CommitUnsafe(ledger.CommitStateKey(n))
		}
		return o.Veto.CommitUnsafe(ledger.ActStateKey(n, kind.String(), 0))
	}
}

// fillOSRecord renders one finished OS-study run into its forensic record.
// The kernel study measures recovery outcomes, not event positions, so the
// record carries the commit count (forked DC stats include the template's
// prefix, keeping it mode-invariant) but no commit positions, and no
// activation/crash step marks.
func (o *OSStudy) fillOSRecord(rec *ledger.Record, kind sim.FaultKind, w *sim.World, d *dc.DC,
	injectAt time.Duration, injSteps int, injected, crashed, recovered, propagated bool) {
	if rec == nil {
		return
	}
	rec.Study = "table2"
	rec.App = o.App
	rec.Protocol = o.Policy.Name
	rec.Medium = stablestore.Rio.Name
	rec.Kind = kind.String()
	rec.Seed = o.Seed
	rec.FireAt = int64(injectAt / time.Microsecond)
	p := w.Procs[0]
	rec.Steps = p.Steps
	rec.WorldSteps = w.StepCount()
	rec.VClockUS = int64(w.Clock / time.Microsecond)
	rec.CommitN = d.Stats.TotalCheckpoints()
	rec.SaveWork = propagated
	if o.Veto != nil {
		rec.VetoActive = true
		rec.VetoN = d.Stats.CommitsVetoed
		rec.VetoSaveWorkN = d.Stats.VetoedSaveWork
	}
	switch {
	case !injected:
		rec.Outcome = ledger.Inert
	case !crashed:
		rec.Outcome = ledger.Completed
	default:
		rec.Outcome = ledger.Crashed
		rec.LoseWork = !recovered
		rec.Recovered = recovered
	}
	if injected {
		rec.PrefixSteps = injSteps
	}
}

// runOne injects one kernel fault at a virtual time drawn from injSeed and
// reports whether the application crashed and whether it recovered
// end-to-end, filling rec (if non-nil) with the run's forensic record. The
// run starts from the deepest snapshot before the injection time; every
// outcome and record field is invariant under that choice — the world
// resumes at the template's absolute step count and clock, and a forked
// DC's stats carry the template's checkpoint count forward.
func (o *OSStudy) runOne(kind sim.FaultKind, injSeed int64, cache *prefixCache, rec *ledger.Record) (crashed, recovered, propagated bool, err error) {
	// Estimate run length, then inject at a random fraction of it.
	cleanDur, err := o.cleanDuration()
	if err != nil {
		return false, false, false, err
	}
	r := newSplitmix(injSeed)
	injectAt := time.Duration(float64(cleanDur) * (0.05 + 0.9*r.Float64()))
	snap := cache.before(int64(injectAt))
	scribble := &memoryScribble{}
	crashes := 0
	injected := false
	w, d, err := o.open(snap, scribble, func(d *dc.DC) {
		d.RecoveryHook = func(p *sim.Proc, reason string) {
			crashes++
			if crashes > 3 {
				d.DisableRecovery = true // crash-looping on committed corruption
			}
		}
		o.armOSVeto(d, kind, &injected)
	})
	if err != nil {
		return false, false, false, err
	}
	// Each buggy kernel execution serving a syscall has a small chance of
	// writing through a wild pointer into user pages; the application's
	// exposure is therefore proportional to its syscall rate within the
	// fault window — the paper's explanation for nvi propagating 4x more
	// often than postgres.
	k := w.OS.(*kernel.Kernel)
	propRng := newSplitmix(injSeed ^ 0x2545f491)
	k.OnCorrupt = func(pid int) {
		if propRng.Float64() < scribbleProbability {
			scribble.armed = true
		}
	}
	window := osFaultWindow[kind]
	injSteps := -1
	for {
		more, err := w.Step()
		if err != nil {
			return false, false, false, err
		}
		if !more {
			break
		}
		if !injected && w.Clock >= injectAt {
			injected = true
			injSteps = w.StepCount()
			k.InjectFault(0, window)
			// The clean prefix this run re-executed, in world steps up to
			// the injection boundary.
			if o.CampaignObs != nil {
				o.CampaignObs.Snapshot.AddReplay(w.StepCount() - snap.steps)
			}
		}
	}
	o.noteCOW(w, d)
	propagated = k.FaultCorrupted(0)
	if injected && crashes > 0 {
		crashed = true
		recovered = w.AllDone()
		propagated = propagated || scribble.fired
	}
	o.fillOSRecord(rec, kind, w, d, injectAt, injSteps, injected, crashed, recovered, propagated)
	return crashed, recovered, propagated, nil
}

// cleanDuration measures the fault-free run's virtual duration, once. A
// build or run failure is propagated instead of silently substituting a
// placeholder duration (which would skew every injection point and thus
// FailurePct). sync.Once makes the cache safe for the campaign's parallel
// workers, each of which reads it on every run.
func (o *OSStudy) cleanDuration() (time.Duration, error) {
	o.cleanOnce.Do(func() {
		w, err := o.buildWorld(o.Seed)
		if err != nil {
			o.cleanErr = fmt.Errorf("faults: clean-duration build: %w", err)
			return
		}
		w.RecordTrace = false
		if err := w.Run(); err != nil {
			o.cleanErr = fmt.Errorf("faults: clean-duration run: %w", err)
			return
		}
		o.cleanDur = w.Clock
	})
	return o.cleanDur, o.cleanErr
}

// Run executes the OS study for every fault type, fanning injection runs
// out over o.Parallel workers with the same ordered-acceptance guarantee
// as AppStudy.Run. One template run's clock-keyed prefix-snapshot cache
// serves every injection run of every fault type (the clean prefix is
// fault-type-independent).
func (o *OSStudy) Run() ([]OSTypeResult, error) {
	// Measure the clean duration before spawning workers so the first
	// parallel batch doesn't serialize behind the sync.Once anyway.
	if _, err := o.cleanDuration(); err != nil {
		return nil, err
	}
	cache, err := o.prefixes(o.buildOSPrefixCache)
	if err != nil {
		return nil, err
	}
	var out []OSTypeResult
	for _, kind := range AppFaultTypes {
		kind := kind
		tr := OSTypeResult{Kind: kind}
		type osRun struct {
			crashed, recovered, propagated bool
			rec                            *ledger.Record
		}
		err := campaign.Run(o.campaignConfig(), o.MaxRunsPerType,
			func(run int) (osRun, error) {
				var rec *ledger.Record
				if o.records() {
					rec = ledger.Get()
				}
				crashed, recovered, propagated, err := o.runOne(kind, o.Seed*77777+int64(run), cache, rec)
				return osRun{crashed, recovered, propagated, rec}, err
			},
			func(run int, r osRun) bool {
				o.acceptLedger(run, r.rec)
				tr.Runs++
				if r.propagated {
					tr.Propagations++
				}
				if r.crashed {
					tr.Crashes++
					if !r.recovered {
						tr.FailedRecoveries++
					}
				}
				return tr.Crashes < o.CrashTarget
			})
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}
