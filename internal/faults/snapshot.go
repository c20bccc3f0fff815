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
// The cache is immutable once built; parallel campaign workers fork it
// concurrently without locking (Fork of a sealed world only reads it).
//
// From-scratch replay is the degenerate cache: one zero-valued snapshot
// with no template world, which AppStudy.open answers by building the world
// instead of forking one. The run bodies are therefore written once, against
// a snapshot, and the Snapshots-off reference differs from production only
// in where the world comes from.

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
}

// prefixCache is one study's snapshot sequence, in capture order (so at is
// nondecreasing).
type prefixCache struct {
	snaps []prefixSnapshot
}

// before returns the deepest snapshot strictly before the given injection
// point. Strictly: a one-shot injector seeded with the snapshot's visit count
// must still have the firing visit ahead of it, and the OS study's injection
// check runs at every post-step boundary after the fork — every pre-snapshot
// boundary had Clock <= snap.at < injectAt, so the fork injects at the same
// boundary the from-scratch loop does. The first snapshot (the template
// before its first step, or the zero snapshot) matches every injection
// point, so there is always a hit.
//
//failtrans:hotpath
func (c *prefixCache) before(at int64) *prefixSnapshot {
	best := &c.snaps[0]
	for i := range c.snaps {
		if c.snaps[i].at < at {
			best = &c.snaps[i]
		}
	}
	return best
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
// commits is the slice arm's CommitHook fills.
func (s *AppStudy) buildCache(inj sim.FaultInjector, arm func(*dc.DC), commits *[]int,
	pos func(*sim.World) int64, every, horizon int64) (*prefixCache, error) {
	w, _, err := s.open(&prefixSnapshot{}, inj, arm)
	if err != nil {
		return nil, err
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
			return nil, err
		}
		if _, err = armFork(w, inj, arm); err != nil {
			return nil, err
		}
		for pos(w) < snap.at+every {
			if pos(w) >= horizon {
				return cache, nil
			}
			more, err := w.Step()
			if err != nil {
				return nil, err
			}
			if !more {
				return cache, nil
			}
		}
	}
}

// buildPrefixCache runs the Table 1 template: the clean session under the
// study's exact injection-run configuration, snapshotted every
// snapshotEveryVisits fault-site visits. key draws from [fireBase,
// fireHorizon]; past that visit count no injector can still fire.
func (s *AppStudy) buildPrefixCache() (*prefixCache, error) {
	vc := &visitCounter{}
	var commits []int
	return s.buildCache(vc, func(d *dc.DC) { s.armInjection(d, &commits) }, &commits,
		func(*sim.World) int64 { return int64(vc.visits) }, snapshotEveryVisits, int64(s.fireHorizon()))
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
	return o.buildCache(nil, func(*dc.DC) {}, new([]int),
		func(w *sim.World) int64 { return int64(w.Clock) }, int64(interval), int64(0.95*float64(cleanDur)))
}
