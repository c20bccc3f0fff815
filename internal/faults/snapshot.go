package faults

import (
	"fmt"
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
// The suffix half (Table 1 only): the template does not stop at its
// horizon but runs on to the end of its session, taking no more snapshots,
// and records where the session ended and each snapshot's encoded program
// state. An injection run whose one-shot has fired compares itself with each
// later snapshot when its world step count reaches that snapshot's
// (converge, World.SameState: every layer's behaviour-relevant state,
// exactly, never a digest), until it crashes: a crashed run has rolled back
// and runs on to its end for its recovery check. A match proves the rest of
// the run is the rest of the template's: a world's steps are a function of
// its state, and from there on neither injector injects (a fired one-shot,
// like the visit counter, returns NoFault with no other side effect). So the
// run stops and inherits that rest: its commit positions continue with the
// template's after the snapshot, its final step positions, clock and
// liveness are the template's, and its output is its own so far followed by
// the template's from the same output count on. Nothing else a run reports
// reads the skipped steps. Table 2 does not converge: its outcome reads run-local
// state the template lacks (crash count, scribble injector, the kernel's
// corruption flag). Neither does a study with a veto armed: a vetoed run's
// commits read its own activation history.
//
// The cache is immutable once built; parallel campaign workers fork it and
// compare against it concurrently without locking (Fork of a sealed world
// and SameState against one only read it).
//
// From-scratch replay is the degenerate cache: one zero-valued snapshot
// with no template world and no session end, which AppStudy.open answers by
// building the world instead of forking one, and which no run converges
// on. The run bodies are therefore written once, against a snapshot, and the
// Snapshots-off reference differs from production only in where the world
// comes from and in running every session to its end.

// snapshotEveryVisits spaces AppStudy snapshots in fault-site visits (the
// unit fire points are expressed in).
const snapshotEveryVisits = 8

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

// prefixCache is one study's snapshot sequence, in capture order (so at is
// nondecreasing, and steps increasing).
type prefixCache struct {
	snaps []prefixSnapshot
	// end is where the template's session ended, past its last snapshot:
	// what a run that converges on a snapshot inherits. Nil when runs do
	// not converge (Table 2, the zero snapshot, a study with a veto armed).
	end *sessionEnd
}

// sessionEnd is how a run's session ended: its one process's event
// position and liveness, the world's step count and clock, the commit
// positions its timeline reports, the output it produced and the commits a
// veto deferred (d.Stats.CommitsVetoed and VetoedSaveWork).
type sessionEnd struct {
	steps          int
	worldSteps     int
	clock          time.Duration
	dead           bool
	commits        []int
	outputs        []string
	vetoed         int
	vetoedSaveWork int
}

// endOf reads world w's session end so far, d being its recovery layer.
// commits and outputs are capacity-clamped, so a run that goes on appending
// to its own never writes into them.
func endOf(w *sim.World, d *dc.DC, commits []int) sessionEnd {
	p := w.Procs[0]
	out := w.Outputs[0]
	return sessionEnd{steps: p.Steps, worldSteps: w.StepCount(), clock: w.Clock, dead: p.Dead(),
		commits: commits[:len(commits):len(commits)], outputs: out[:len(out):len(out)],
		vetoed: d.Stats.CommitsVetoed, vetoedSaveWork: d.Stats.VetoedSaveWork}
}

// inherit is the session end of run w, which has just converged on snapshot
// snap of the template whose end e is: w's own history up to this point, the
// template's from snap on.
func (e *sessionEnd) inherit(w *sim.World, commits []int, snap *prefixSnapshot) sessionEnd {
	out := w.Outputs[0]
	return sessionEnd{steps: e.steps, worldSteps: e.worldSteps, clock: e.clock, dead: e.dead,
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
	best := 0
	for i := range c.snaps {
		if c.snaps[i].at < at {
			best = i
		}
	}
	return best
}

// converge steps run w, which started at snapshot from with one-shot inj
// armed, to the end of its session — or, once inj has fired and until its
// process crashes, until w's state equals that of a later snapshot the
// template sealed at w's step count, which it returns. From that snapshot on
// the run is the template: a world's steps are a function of its state, and
// the fired one-shot, like the template's visit counter, never injects
// again. Without a known template end it only runs to the end.
func (c *prefixCache) converge(w *sim.World, inj *oneShot, from int) (*prefixSnapshot, error) {
	next := len(c.snaps)
	if c.end != nil {
		next = from + 1
	}
	if err := w.Init(); err != nil {
		return nil, err
	}
	for {
		// A crashed run has rolled back: it is no longer the template.
		if inj.fired && w.Procs[0].Crashes == 0 {
			n := w.StepCount()
			for next < len(c.snaps) && c.snaps[next].steps < n {
				next++
			}
			if next < len(c.snaps) && c.snaps[next].steps == n {
				if snap := &c.snaps[next]; w.SameState(snap.world, snap.state) {
					return snap, nil
				}
				next++
			}
		}
		more, err := w.Step()
		if err != nil || !more {
			return nil, err
		}
	}
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
// an injection run is, sealed into a snapshot before its first step and then
// every `every` units of pos, until pos reaches horizon (past the last
// possible injection point deeper snapshots would serve nobody). Sealing is
// freeze-and-continue: the live world itself becomes the snapshot and the
// template carries on on a fork of it, armed as open arms a run's, so a
// snapshot costs what any fork costs, not a copy of the state. Those forks
// serve no run and save no steps, so SnapshotMetrics does not count them.
// commits is the slice arm's CommitHook fills. It returns the live template
// world too, stopped at the horizon or at the end of its session.
func (s *AppStudy) buildCache(inj sim.FaultInjector, arm func(*dc.DC), commits *[]int,
	pos func(*sim.World) int64, every, horizon int64) (*prefixCache, *sim.World, error) {
	w, _, err := s.open(&prefixSnapshot{}, inj, arm)
	if err != nil {
		return nil, nil, err
	}
	cache := &prefixCache{}
	for {
		snap := prefixSnapshot{at: pos(w), steps: w.StepCount(), commits: append([]int(nil), *commits...), world: w}
		cache.snaps = append(cache.snaps, snap)
		if s.CampaignObs != nil {
			s.CampaignObs.Snapshot.AddSnapshot()
		}
		// Fork seals w, the snapshot just stored.
		if w, err = w.Fork(); err != nil {
			return nil, nil, err
		}
		if _, err = armFork(w, inj, arm); err != nil {
			return nil, nil, err
		}
		for pos(w) < snap.at+every {
			if pos(w) >= horizon {
				return cache, w, nil
			}
			more, err := w.Step()
			if err != nil {
				return nil, nil, err
			}
			if !more {
				return cache, w, nil
			}
		}
	}
}

// buildPrefixCache runs the Table 1 template: the clean session under the
// study's exact injection-run configuration, snapshotted every
// snapshotEveryVisits fault-site visits. key draws from [fireBase,
// fireHorizon]; past that visit count no injector can still fire. Unless a
// veto is armed, the template then runs on to the end of its session,
// taking no more snapshots, and records that end and every snapshot's
// program state, so injection runs can converge on it. A vetoed run's
// commits read its own activation history, which the template lacks.
func (s *AppStudy) buildPrefixCache() (*prefixCache, error) {
	vc := &visitCounter{}
	var commits []int
	cache, w, err := s.buildCache(vc, func(d *dc.DC) { s.armInjection(d, &commits) }, &commits,
		func(*sim.World) int64 { return int64(vc.visits) }, snapshotEveryVisits, int64(s.fireHorizon()))
	if err != nil || s.Veto != nil {
		return cache, err
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	for i := range cache.snaps {
		if cache.snaps[i].state, err = cache.snaps[i].world.ProgramStates(); err != nil {
			return nil, err
		}
	}
	end := endOf(w, w.Recovery.(*dc.DC), commits)
	cache.end = &end
	return cache, nil
}

// buildOSPrefixCache runs the Table 2 template: the clean session under a
// recovery-enabled DC (the OS study's injection-run configuration),
// snapshotted every 1/osSnapshotSlices of the clean duration. An unarmed
// scribble injector and no injector at all are indistinguishable before
// injection, so the template attaches none. Injection times are drawn from
// [0.05, 0.95) of cleanDur, the clean run's duration.
func (o *OSStudy) buildOSPrefixCache(cleanDur time.Duration) (*prefixCache, error) {
	interval := cleanDur / osSnapshotSlices
	if interval <= 0 {
		interval = 1
	}
	cache, _, err := o.buildCache(nil, func(*dc.DC) {}, new([]int),
		func(w *sim.World) int64 { return int64(w.Clock) }, int64(interval), int64(0.95*float64(cleanDur)))
	return cache, err
}
