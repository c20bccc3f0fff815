package faults

import (
	"fmt"
	"time"

	"failtrans/internal/campaign"
	"failtrans/internal/dc"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// Study names, as RunKey.Study and the ledger's study column carry them.
const (
	table1 = "table1"
	table2 = "table2"
)

// RunKey names one injection run: a run's outcome and its ledger record are
// a function of its key alone. Each study turns a run index into a key in
// one place (AppStudy.key, OSStudy.key); runOne, Table 1's once-table and
// the record header read the key, never the index. There is no medium
// field: the medium is always Rio.
type RunKey struct {
	// Study is table1 or table2. App, Protocol and Seed restate the study's
	// configuration: a key names a run within its study.
	Study    string
	App      string
	Protocol string
	Kind     sim.FaultKind
	Seed     int64
	// FireAt is where the fault fires: a fault-site visit count (Table 1)
	// or a virtual time in nanoseconds (Table 2).
	FireAt int64
	// Variant is Table 2's injection seed, which draws whether a corrupted
	// syscall also scribbles on application memory; 0 in Table 1.
	Variant int64
}

// stamp writes the key into a record's header. Table 2's FireAt goes to
// disk in microseconds.
func (k RunKey) stamp(r *ledger.Record) {
	r.Study = k.Study
	r.App = k.App
	r.Protocol = k.Protocol
	r.Medium = stablestore.Rio.Name
	r.Kind = k.Kind.String()
	r.Seed = k.Seed
	r.FireAt = k.FireAt
	if k.Study == table2 {
		r.FireAt /= int64(time.Microsecond)
	}
}

// record starts a finished run's forensic record: the key's header and
// where the run's session ended, with, under a veto, the deferrals counted
// by then.
func (s *AppStudy) record(k RunKey, end sessionEnd) *ledger.Record {
	r := ledger.Get()
	k.stamp(r)
	r.Steps = end.steps
	r.WorldSteps = end.worldSteps
	r.VClockUS = int64(end.clock / time.Microsecond)
	if s.Veto != nil {
		r.VetoActive = true
		r.VetoN = end.vetoed
		r.VetoSaveWorkN = end.vetoedSaveWork
	}
	return r
}

// records reports whether the study fills per-run forensic records (for
// the ledger file, the in-memory record hook, or both).
func (s *AppStudy) records() bool { return s.Ledger != nil || s.RecordHook != nil }

// acceptLedger appends a run's record (if the worker filled one) from the
// campaign acceptor and recycles it.
func (s *AppStudy) acceptLedger(run int, rec *ledger.Record) {
	if rec == nil {
		return
	}
	rec.Run = run
	if s.Ledger != nil {
		s.Ledger.Append(rec)
	}
	if s.RecordHook != nil {
		s.RecordHook(rec)
	}
	ledger.Put(rec)
}

// acceptConvergence counts an accepted run's converged or rejoined run (in
// Table 1, its cell), once.
func (s *AppStudy) acceptConvergence(c *convergence) {
	if c == nil || c.counted || s.CampaignObs == nil {
		return
	}
	c.counted = true
	s.CampaignObs.Snapshot.AddConverged(c.skipped, c.rejoined)
}

// maxRecoveries is how many crashes a recovering run rolls back from. Past
// it the committed state re-triggers the failure every time — a crash
// loop — so the run gives up, as an operator would.
const maxRecoveries = 3

// giveUpOnCrashLoop arms d to switch recovery off after maxRecoveries
// crashes, so the next crash is final, and to call first, if non-nil, once
// the first crash has rolled back (p.Steps is still the crash position).
// The hook counts crashes by d's own rollback count past its value at
// arming (OnCrash advances it just before it calls the hook), so it keeps
// no counter of its own.
func giveUpOnCrashLoop(d *dc.DC, first func(p *sim.Proc)) {
	armedAt := d.Stats.Recoveries
	d.RecoveryHook = func(p *sim.Proc, reason string) {
		crashes := d.Stats.Recoveries - armedAt
		if crashes == 1 && first != nil {
			first(p)
		}
		if crashes > maxRecoveries {
			d.DisableRecovery = true
		}
	}
}

// cleanRun runs the study's session fault-free, with no recovery layer, and
// returns the finished world.
func (s *AppStudy) cleanRun() (*sim.World, error) {
	w, err := s.buildWorld(s.Seed)
	if err != nil {
		return nil, err
	}
	w.RecordTrace = false
	if err := w.Run(); err != nil {
		return nil, fmt.Errorf("faults: clean run: %w", err)
	}
	return w, nil
}

// runStudy is the engine Table 1 and Table 2 run through. It checks the
// configuration and runs the session fault-free once — Table 1 compares
// outputs against that clean run, Table 2 draws injection times over its
// duration — and template builds from it the prefix-snapshot cache every
// injection run starts from (with Snapshots off, the zero snapshot alone).
// Then, per fault type, it fans run indexes out over s.Parallel workers to
// the job jobs returns for the type, and accepts results strictly in serial
// run order (see internal/campaign): the record into the ledger, the outcome
// into tally with the type's index in AppFaultTypes, until the type's
// CrashTarget-th crash. A run is a function of its key alone, so the tallies
// are byte-identical at any worker count.
func (s *AppStudy) runStudy(
	template func(clean *sim.World) (*prefixCache, error),
	jobs func(kind sim.FaultKind, clean *sim.World, cache *prefixCache) func(run int) (RunResult, error),
	tally func(i int, res RunResult),
) error {
	if s.SessionLen < 1 {
		return fmt.Errorf("faults: SessionLen %d, need >= 1", s.SessionLen)
	}
	clean, err := s.cleanRun()
	if err != nil {
		return err
	}
	cache := &prefixCache{snaps: make([]prefixSnapshot, 1)} // the zero snapshot
	if s.Snapshots {
		if cache, err = template(clean); err != nil {
			return err
		}
	}
	cfg := campaign.Config{Workers: s.Parallel, Metrics: s.CampaignObs}
	for i, kind := range AppFaultTypes {
		crashes := 0
		err := campaign.Run(cfg, s.MaxRunsPerType, jobs(kind, clean, cache),
			func(run int, res RunResult) bool {
				s.acceptLedger(run, res.Rec)
				s.acceptConvergence(res.conv)
				tally(i, res)
				if res.Crashed {
					crashes++
				}
				return crashes < s.CrashTarget
			})
		if err != nil {
			return err
		}
	}
	return nil
}
