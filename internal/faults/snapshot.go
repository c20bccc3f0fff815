package faults

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/sim"
)

// This file is the campaign-side consumer of the sim snapshot/fork engine:
// a prefix-snapshot cache. Every injection run of a study executes the
// same clean session — fixed by the study seed — up to its injection
// point; only the injection point varies. One template run per study
// executes that clean session once, capturing world snapshots along the
// way; each injection run then forks the deepest snapshot strictly before
// its injection point and resumes, re-executing only the prefix tail
// instead of the whole prefix.
//
// Byte-identity argument: a snapshot is the template itself, sealed at a step
// boundary, and the template is configured exactly as an injection run is
// before its fault activates (same world seed, same DC policy and flags; the
// injector differences are invisible before activation — Ctx.Fault records no
// event, and both the template's visit counter and an unfired one-shot
// return NoFault with no other side effect). World.Fork reproduces the
// complete simulation state, so a forked run's remaining execution is
// step-for-step the from-scratch run's — and so is the template's own, which
// carries on past each snapshot on a fork of it like any run. The one piece
// of prefix history a fork cannot regenerate — the commit positions its
// Timeline must report — is stored in the snapshot and prepended. The oracle
// is the from-scratch study, which never calls Fork (see open).
//
// The suffix half: the template runs on to the end of its session, taking
// snapshots all the way, and records where the session ended and each
// snapshot's encoded program state. Once an injection run's injector has
// gone quiet — it will inject nothing more — the run compares itself with
// the template's snapshots (converge, World.SameState: every layer's
// behaviour-relevant state, never a digest). A world's steps are a function
// of its state, and from a match on neither injector injects, so the rest of
// the run is the rest of the template's and the run stops there.
//
//   - Converging (exact). A run that has not crashed compares with the
//     snapshot sealed at its own world step count and must match it with
//     all offsets zero. It inherits the template's rest: its commit
//     positions continue with the template's after the snapshot, its final
//     step positions, clock and liveness are the template's, and its output
//     is its own so far followed by the template's from the same output
//     count on.
//   - Rejoining (offsets). A run that crashed has rolled back and
//     re-executed, so its positions run ahead of the template's for ever
//     after: the clock, step and event counts, the process's Steps, Crashes
//     and output count (offset fields, which only advance and which no step
//     reads except to advance them), and the positions that live in the
//     layers (dc's stepsBase, commit epochs while no dependency refers to
//     them, the kernel's syscall and corruption counters while no fault
//     window is open). The output count is among them because output is
//     history: the re-execution repeated outputs that were already visible.
//     Every other field is compared exactly. A run that equals a snapshot up to uniform
//     offsets does what the template does from there, shifted by them, as
//     long as nothing in the suffix reads an absolute position — the guard:
//     the template's program-facing clock reads (World.ClockReads) must not
//     move from the snapshot to its end, and the world must set no step or
//     time limit (SameState checks that). A rejoined run's crash-time
//     measurements are already taken; it inherits only what the template's
//     end says about the rest: liveness (Recovered), and for Table 2 the
//     final positions (the template's plus the offsets) and the commits the
//     template took after the snapshot. The candidates are the snapshots
//     whose input cursor is the run's, a cheap scalar prefilter.
//
// Nothing else a run reports reads the skipped steps. A study with a veto
// armed keeps no template end, and none of its runs converges: a vetoed
// run's commits read its own activation history.
//
// The cache is immutable once built; parallel campaign workers fork it and
// compare against it concurrently without locking (Fork of a sealed world
// and SameState against one only read it and the frozen bases a run shares
// with it).
//
// From-scratch replay is the degenerate cache: one zero-valued snapshot
// with no template world and no session end, which AppStudy.open answers by
// building the world instead of forking one, and which no run converges
// on. The run bodies are therefore written once, against a snapshot, and the
// Snapshots-off reference differs from production only in where the world
// comes from and in running every session to its end.

// snapshotEveryVisits spaces AppStudy snapshots in fault-site visits (the
// unit fire points are expressed in) up to the deepest fire point, and
// suffixEveryVisits past it, where they serve no fork, only runs that
// converge on or rejoin the template. Sealing one costs the template a fork,
// the copy-on-write faults of the steps after it and an encoded program
// state; a run that passes between two rejoins at the next.
const (
	snapshotEveryVisits = 8
	suffixEveryVisits   = 4 * snapshotEveryVisits
)

// osSnapshotSlices divides the OS study's clean duration into this many
// snapshot intervals (injection points are drawn in virtual time).
const osSnapshotSlices = 64

// visitCounter counts fault-site visits without ever firing — the
// template's stand-in for an injection run's not-yet-fired injector.
type visitCounter struct{ visits int }

//failtrans:hotpath
func (v *visitCounter) At(p *sim.Proc, site string) sim.FaultKind {
	v.visits++
	return sim.NoFault
}

// prefixSnapshot is one memoized point of the clean session.
type prefixSnapshot struct {
	// at is the template's position when it was sealed, in the unit the study
	// draws injection points in: fault-site visits completed (AppStudy) or
	// virtual nanoseconds elapsed (OSStudy). steps is the world step count —
	// what a fork saves.
	at    int64
	steps int
	// cursor is the template's input cursor, the prefilter a crashed run
	// matches before comparing states; clockReads its World.ClockReads and
	// checkpoints its DC's total commit count (Stats.TotalCheckpoints).
	cursor      int
	clockReads  int64
	checkpoints int
	// commits holds the commit positions the template recorded up to this
	// point; forks prepend it so their timelines cover the whole run.
	commits []int
	// world is the sealed template world injection runs fork from. It is
	// never stepped again. Nil in the zero snapshot, whose runs build their
	// world from scratch.
	world *sim.World
	// state is world's programs' encoded state (World.ProgramStates), which
	// a converging run compares its own against: encoded once from the
	// sealed world, and only for a template whose session end is known.
	state [][]byte
}

// prefixCache is one study's snapshot sequence, in capture order (so at,
// cursor and clockReads are nondecreasing, and steps increasing).
type prefixCache struct {
	snaps []prefixSnapshot
	// end is where the template's session ended: what a run that converges
	// on a snapshot inherits. Nil when runs do not converge (the zero
	// snapshot, a study with a veto armed).
	end *sessionEnd
}

// sessionEnd is how a run's session ended: its one process's event
// position and liveness, whether every process finished, the world's step
// count and clock, the commit positions its timeline reports, the output it
// produced, the commits a veto deferred (d.Stats.CommitsVetoed and
// VetoedSaveWork), the commits it took (d.Stats.TotalCheckpoints) and its
// program-facing clock reads.
type sessionEnd struct {
	steps          int
	worldSteps     int
	clock          time.Duration
	dead           bool
	done           bool
	commits        []int
	outputs        []string
	vetoed         int
	vetoedSaveWork int
	checkpoints    int
	clockReads     int64
}

// endOf reads world w's session end so far, d being its recovery layer.
// commits and outputs are capacity-clamped, so a run that goes on appending
// to its own never writes into them.
func endOf(w *sim.World, d *dc.DC, commits []int) sessionEnd {
	p := w.Procs[0]
	out := w.Outputs[0]
	return sessionEnd{steps: p.Steps, worldSteps: w.StepCount(), clock: w.Clock, dead: p.Dead(), done: w.AllDone(),
		commits: commits[:len(commits):len(commits)], outputs: out[:len(out):len(out)],
		vetoed: d.Stats.CommitsVetoed, vetoedSaveWork: d.Stats.VetoedSaveWork,
		checkpoints: d.Stats.TotalCheckpoints(), clockReads: w.ClockReads()}
}

// inherit is the session end of run w, which has just converged exactly on
// snapshot snap of the template whose end e is: w's own history up to this
// point, the template's from snap on.
func (e *sessionEnd) inherit(w *sim.World, commits []int, snap *prefixSnapshot) sessionEnd {
	out := w.Outputs[0]
	return sessionEnd{steps: e.steps, worldSteps: e.worldSteps, clock: e.clock, dead: e.dead, done: e.done,
		commits: append(commits, e.commits[len(snap.commits):]...),
		outputs: append(out[:len(out):len(out)], e.outputs[len(out):]...)}
}

// before returns the index of the deepest snapshot strictly before the
// given injection point. Strictly: a one-shot injector seeded with the snapshot's visit count
// must still have the firing visit ahead of it, and the OS study's injection
// check runs at every post-step boundary after the fork — every pre-snapshot
// boundary had Clock <= snap.at < injectAt, so the fork injects at the same
// boundary the from-scratch loop does. The first snapshot (the template
// before its first step, or the zero snapshot) matches every injection
// point, so there is always a hit.
//
//failtrans:hotpath
func (c *prefixCache) before(at int64) int {
	i, _ := slices.BinarySearchFunc(c.snaps, at, func(s prefixSnapshot, at int64) int { return cmp.Compare(s.at, at) })
	return max(i-1, 0)
}

// converge steps run w, which started at snapshot from, to the end of its
// session, calling after, if non-nil, at every boundary past a step. Once
// quiet reports that the run's injector will inject nothing more, it also
// looks for a snapshot of a known template end that w matches (match) and
// stops there, returning the snapshot and the offsets it matched at: from
// that snapshot on the run is the template, shifted by them. Without a
// match it returns a nil snapshot at the end of the session.
func (c *prefixCache) converge(w *sim.World, from int, quiet func() bool, after func()) (*prefixSnapshot, sim.Offsets, error) {
	next := from + 1
	if err := w.Init(); err != nil {
		return nil, sim.Offsets{}, err
	}
	for {
		if c.end != nil && quiet() {
			if snap, off := c.match(w, &next); snap != nil {
				return snap, off, nil
			}
		}
		more, err := w.Step()
		if err != nil || !more {
			return nil, sim.Offsets{}, err
		}
		if after != nil {
			after()
		}
	}
}

// match looks for a snapshot run w is in the state of. While w's process
// has not crashed, that is the snapshot sealed at w's world step count, if
// any, matched with all offsets zero; *next, the first snapshot not yet
// passed, saves rescanning. A crashed run's positions are shifted for good,
// so it is any snapshot with w's input cursor, matched up to offsets, as
// long as the template reads no clock from there to its end.
func (c *prefixCache) match(w *sim.World, next *int) (*prefixSnapshot, sim.Offsets) {
	p := w.Procs[0]
	if p.Crashes == 0 {
		n := w.StepCount()
		for *next < len(c.snaps) && c.snaps[*next].steps < n {
			*next++
		}
		if *next < len(c.snaps) && c.snaps[*next].steps == n {
			snap := &c.snaps[*next]
			*next++
			if off, ok := w.SameState(snap.world, snap.state); ok && off.Zero() {
				return snap, off
			}
		}
		return nil, sim.Offsets{}
	}
	i, _ := slices.BinarySearchFunc(c.snaps, p.InputCursor, func(s prefixSnapshot, cur int) int { return cmp.Compare(s.cursor, cur) })
	for ; i < len(c.snaps) && c.snaps[i].cursor == p.InputCursor; i++ {
		snap := &c.snaps[i]
		if snap.clockReads != c.end.clockReads {
			continue
		}
		if off, ok := w.SameState(snap.world, snap.state); ok {
			return snap, off
		}
	}
	return nil, sim.Offsets{}
}

// forkSnap serves one injection run a fork of the snapshot's world, with fork
// latency and steps saved accounted.
func (s *AppStudy) forkSnap(snap *prefixSnapshot) (*sim.World, error) {
	var start int64
	if s.WallClock != nil {
		start = s.WallClock()
	}
	w, err := snap.world.Fork()
	if err != nil {
		return nil, err
	}
	if s.CampaignObs != nil {
		ns := int64(-1)
		if s.WallClock != nil {
			ns = s.WallClock() - start
		}
		s.CampaignObs.Snapshot.AddFork(snap.steps, ns)
	}
	return w, nil
}

// armFork wires a freshly forked world for its run: inj attached, arm applied
// to the forked recovery layer (a fork inherits its template's DC flags but
// never its hooks).
func armFork(w *sim.World, inj sim.FaultInjector, arm func(*dc.DC)) (*dc.DC, error) {
	d, ok := w.Recovery.(*dc.DC)
	if !ok {
		return nil, fmt.Errorf("faults: forked recovery is %T, want *dc.DC", w.Recovery)
	}
	w.Faults = inj
	arm(d)
	return d, nil
}

// buildCache runs a study's template: the clean session, opened and armed as
// an injection run is, through runTemplate.
func (s *AppStudy) buildCache(inj sim.FaultInjector, arm func(*dc.DC), commits *[]int,
	pos func(*sim.World) int64, every func(at int64) int64) (*prefixCache, error) {
	w, _, err := s.open(&prefixSnapshot{}, inj, arm)
	if err != nil {
		return nil, err
	}
	return s.runTemplate(w, inj, arm, commits, pos, every)
}

// runTemplate runs template world w, opened with injector inj and armed by
// arm, sealing it into a snapshot before its next step and then each time
// pos has moved every(at) on from the last snapshot's position at, to the
// end of its session (sealing no world whose processes have all finished). Sealing is
// freeze-and-continue: the live world itself becomes the snapshot and the
// template carries on on a fork of it, armed as open arms a run's, so a
// snapshot costs what any fork costs, not a copy of the state. Those forks
// serve no run and save no steps, so SnapshotMetrics does not count them.
// commits is the slice arm's CommitHook fills. Unless a veto is armed, it
// then records the session's end and every snapshot's program state, so
// injection runs can converge on it.
func (s *AppStudy) runTemplate(w *sim.World, inj sim.FaultInjector, arm func(*dc.DC), commits *[]int,
	pos func(*sim.World) int64, every func(at int64) int64) (*prefixCache, error) {
	var err error
	cache := &prefixCache{}
	for more := true; more; {
		snap := prefixSnapshot{at: pos(w), steps: w.StepCount(), cursor: w.Procs[0].InputCursor,
			clockReads: w.ClockReads(), checkpoints: w.Recovery.(*dc.DC).Stats.TotalCheckpoints(),
			commits: append([]int(nil), *commits...), world: w}
		cache.snaps = append(cache.snaps, snap)
		if s.CampaignObs != nil {
			s.CampaignObs.Snapshot.AddSnapshot()
		}
		// Fork seals w, the snapshot just stored.
		if w, err = w.Fork(); err != nil {
			return nil, err
		}
		if _, err = armFork(w, inj, arm); err != nil {
			return nil, err
		}
		for next := snap.at + every(snap.at); more && pos(w) < next; {
			if more, err = w.Step(); err != nil {
				return nil, err
			}
		}
		// A world with nothing left to run is a snapshot no run needs.
		more = more && w.Live() > 0
	}
	if s.Veto != nil {
		return cache, nil
	}
	for i := range cache.snaps {
		if cache.snaps[i].state, err = cache.snaps[i].world.ProgramStates(); err != nil {
			return nil, err
		}
	}
	end := endOf(w, w.Recovery.(*dc.DC), *commits)
	cache.end = &end
	return cache, nil
}

// buildPrefixCache runs the Table 1 template: the clean session under the
// study's exact injection-run configuration, snapshotted every
// snapshotEveryVisits fault-site visits up to fireHorizon and every
// suffixEveryVisits past it.
func (s *AppStudy) buildPrefixCache() (*prefixCache, error) {
	vc := &visitCounter{}
	var commits []int
	horizon := int64(s.fireHorizon())
	return s.buildCache(vc, func(d *dc.DC) { s.armInjection(d, &commits) }, &commits,
		func(*sim.World) int64 { return int64(vc.visits) },
		func(at int64) int64 {
			if at < horizon {
				return snapshotEveryVisits
			}
			return suffixEveryVisits
		})
}

// buildOSPrefixCache runs the Table 2 template: the clean session under a
// recovery-enabled DC (the OS study's injection-run configuration),
// snapshotted every 1/osSnapshotSlices of the clean duration, cleanDur. An
// unarmed scribble injector and no injector at all are indistinguishable
// before injection, so the template attaches none.
func (o *OSStudy) buildOSPrefixCache(cleanDur time.Duration) (*prefixCache, error) {
	interval := cleanDur / osSnapshotSlices
	if interval <= 0 {
		interval = 1
	}
	return o.buildCache(nil, func(*dc.DC) {}, new([]int),
		func(w *sim.World) int64 { return int64(w.Clock) }, func(int64) int64 { return int64(interval) })
}
