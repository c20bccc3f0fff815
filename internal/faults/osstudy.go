package faults

import (
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/kernel"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/sim"
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
type OSStudy struct{ *AppStudy }

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
// from-scratch and the forked path carry (ledgerRecord uses the same
// source), keeping the veto mode-invariant. *injSteps is negative until
// the injection.
func (o *OSStudy) armOSVeto(d *dc.DC, kind sim.FaultKind, injSteps *int) {
	if o.Veto == nil {
		return
	}
	d.CommitVeto = func(p *sim.Proc, label string) bool {
		n := d.Stats.TotalCheckpoints()
		if *injSteps < 0 {
			return o.Veto.CommitUnsafe(ledger.CommitStateKey(n))
		}
		return o.Veto.CommitUnsafe(ledger.ActStateKey(n, kind.String(), 0))
	}
}

// key derives Table 2 run index run's key for kind. The run's injection
// seed is its Variant, and draws its injection time uniformly over
// [5 %, 95 %) of cleanDur, the clean run's duration.
func (o *OSStudy) key(kind sim.FaultKind, run int, cleanDur time.Duration) RunKey {
	v := o.Seed*77777 + int64(run)
	r := newSplitmix(v)
	at := time.Duration(float64(cleanDur) * (0.05 + 0.9*r.Float64()))
	return RunKey{Study: table2, App: o.App, Protocol: o.Policy.Name, Kind: kind, Seed: o.Seed,
		FireAt: int64(at), Variant: v}
}

// ledgerRecord renders one finished Table 2 run as a forensic record. The
// kernel study measures recovery outcomes, not event positions, so the
// record carries the commit count (forked DC stats include the template's
// prefix, keeping it mode-invariant) but no commit positions, and no
// activation/crash step marks. injSteps is the world step count at
// injection, -1 for a run that ended before its injection time.
func (o *OSStudy) ledgerRecord(k RunKey, w *sim.World, d *dc.DC, injSteps int, res RunResult) *ledger.Record {
	r := o.record(k, endOf(w, d, nil))
	r.CommitN = d.Stats.TotalCheckpoints()
	r.SaveWork = res.Propagated
	r.PrefixSteps = injSteps
	switch {
	case injSteps < 0:
		r.Outcome = ledger.Inert
	case !res.Crashed:
		r.Outcome = ledger.Completed
	default:
		r.Outcome = ledger.Crashed
		r.LoseWork = !res.Recovered
		r.Recovered = res.Recovered
	}
	return r
}

// runOne injects the kernel fault k names at its virtual time and reports
// whether the application crashed, whether it recovered end-to-end and
// whether the fault propagated into its state. The run starts from the
// deepest snapshot before the injection time; every outcome and record
// field is invariant under that choice — the world resumes at the
// template's absolute step count and clock, and a forked DC's stats carry
// the template's checkpoint count forward.
func (o *OSStudy) runOne(k RunKey, cache *prefixCache) (RunResult, error) {
	var res RunResult
	snap := &cache.snaps[cache.before(k.FireAt)]
	scribble := &memoryScribble{}
	var crashes *int
	injSteps := -1 // the world step count at injection
	w, d, err := o.open(snap, scribble, func(d *dc.DC) {
		crashes = giveUpOnCrashLoop(d, nil)
		o.armOSVeto(d, k.Kind, &injSteps)
	})
	if err != nil {
		return res, err
	}
	// Each buggy kernel execution serving a syscall has a small chance of
	// writing through a wild pointer into user pages; the application's
	// exposure is therefore proportional to its syscall rate within the
	// fault window — the paper's explanation for nvi propagating 4x more
	// often than postgres.
	kern := w.OS.(*kernel.Kernel)
	propRng := newSplitmix(k.Variant ^ 0x2545f491)
	kern.OnCorrupt = func(pid int) {
		if propRng.Float64() < scribbleProbability {
			scribble.armed = true
		}
	}
	for {
		more, err := w.Step()
		if err != nil {
			return res, err
		}
		if !more {
			break
		}
		if injSteps < 0 && w.Clock >= time.Duration(k.FireAt) {
			injSteps = w.StepCount()
			kern.InjectFault(0, osFaultWindow[k.Kind])
			// The clean prefix this run re-executed, in world steps up to
			// the injection boundary.
			if o.CampaignObs != nil {
				o.CampaignObs.Snapshot.AddReplay(w.StepCount() - snap.steps)
			}
		}
	}
	o.noteCOW(w, d)
	res.Propagated = kern.FaultCorrupted(0)
	if injSteps >= 0 && *crashes > 0 {
		res.Crashed = true
		res.Recovered = w.AllDone()
		res.Propagated = res.Propagated || scribble.fired
	}
	if o.records() {
		res.Rec = o.ledgerRecord(k, w, d, injSteps, res)
	}
	return res, nil
}

// Run executes the OS study for every fault type through runStudy. One
// template run's clock-keyed prefix-snapshot cache serves every injection
// run of every fault type (the clean prefix is fault-type-independent).
func (o *OSStudy) Run() ([]OSTypeResult, error) {
	out := make([]OSTypeResult, len(AppFaultTypes))
	for i, kind := range AppFaultTypes {
		out[i].Kind = kind
	}
	err := o.runStudy(
		func(clean *sim.World) (*prefixCache, error) { return o.buildOSPrefixCache(clean.Clock) },
		func(kind sim.FaultKind, clean *sim.World, cache *prefixCache) func(int) (RunResult, error) {
			return func(run int) (RunResult, error) {
				return o.runOne(o.key(kind, run, clean.Clock), cache)
			}
		},
		func(i int, res RunResult) {
			tr := &out[i]
			tr.Runs++
			if res.Propagated {
				tr.Propagations++
			}
			if res.Crashed {
				tr.Crashes++
				if !res.Recovered {
					tr.FailedRecoveries++
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
