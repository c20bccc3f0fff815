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
// Byte-identity argument: a snapshot is taken at a step boundary of a
// template configured exactly as an injection run is before its fault
// activates (same world seed, same DC policy and flags; the injector
// differences are invisible before activation — Ctx.Fault records no
// event, and both the template's visit counter and an unfired one-shot
// return NoFault with no other side effect). World.Fork reproduces the
// complete simulation state, so the forked run's remaining execution is
// step-for-step the from-scratch run's. The one piece of prefix history a
// fork cannot regenerate — the commit positions its Timeline must report —
// is stored in the snapshot and prepended.
//
// The cache is immutable once built; parallel campaign workers fork it
// concurrently without locking (Fork only reads the template).
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
	// visits is the fault-site visit count completed before the snapshot
	// (AppStudy lookups); clock is the virtual time reached (OSStudy
	// lookups); steps is the world step count — what a fork saves.
	visits int
	clock  time.Duration
	steps  int
	// commits holds the commit positions the template recorded up to this
	// point; forks prepend it so their timelines cover the whole run.
	commits []int
	// world is the quiescent deep copy injection runs fork from. It is
	// never stepped. Nil in the zero snapshot, whose runs build their world
	// from scratch.
	world *sim.World
}

// prefixCache is one study's snapshot sequence, in capture order (so
// visits and clock are both nondecreasing).
type prefixCache struct {
	snaps []prefixSnapshot
}

// byVisits returns the deepest snapshot strictly before the given fire
// point. Strictly: a one-shot injector seeded with the snapshot's visit
// count must still have the firing visit ahead of it. The first snapshot
// (visits 0: the template before its first step, or the zero snapshot)
// matches every fire point, so there is always a hit.
//
//failtrans:hotpath
func (c *prefixCache) byVisits(fireAt int) *prefixSnapshot {
	best := &c.snaps[0]
	for i := range c.snaps {
		if c.snaps[i].visits < fireAt {
			best = &c.snaps[i]
		}
	}
	return best
}

// byClock returns the deepest snapshot strictly before the given virtual
// injection time. Strictly: the injection check runs at every post-step
// boundary after the fork, and every pre-snapshot boundary had
// Clock <= snap.clock < injectAt, so the fork injects at the same boundary
// the from-scratch loop does.
//
//failtrans:hotpath
func (c *prefixCache) byClock(injectAt time.Duration) *prefixSnapshot {
	best := &c.snaps[0]
	for i := range c.snaps {
		if c.snaps[i].clock < injectAt {
			best = &c.snaps[i]
		}
	}
	return best
}

// prefixes resolves the cache a study's runs start from: the template's
// snapshot sequence, or with Snapshots off the single zero snapshot.
func (s *AppStudy) prefixes(build func() (*prefixCache, error)) (*prefixCache, error) {
	if !s.Snapshots {
		return &prefixCache{snaps: make([]prefixSnapshot, 1)}, nil
	}
	return build()
}

// capture forks the running template into a new snapshot. With COW set the
// snapshot world is frozen immediately: it exists only to be forked, and
// freezing switches those forks from O(state) deep copies to O(metadata)
// overlays while turning any accidental template mutation into a panic.
func (c *prefixCache) capture(s *AppStudy, w *sim.World, visits int, commits []int) error {
	fw, err := w.Fork()
	if err != nil {
		return err
	}
	if s.COW {
		fw.Freeze()
	}
	c.snaps = append(c.snaps, prefixSnapshot{
		visits:  visits,
		clock:   w.Clock,
		steps:   w.StepCount(),
		commits: append([]int(nil), commits...),
		world:   fw,
	})
	if s.CampaignObs != nil {
		s.CampaignObs.Snapshot.AddSnapshot()
	}
	return nil
}

// forkSnap serves one injection run from a snapshot: a fresh world plus
// its recovery layer, with fork latency and steps saved accounted.
func (s *AppStudy) forkSnap(snap *prefixSnapshot) (*sim.World, *dc.DC, error) {
	var start int64
	if s.WallClock != nil {
		start = s.WallClock()
	}
	w, err := snap.world.Fork()
	if err != nil {
		return nil, nil, err
	}
	if s.CampaignObs != nil {
		ns := int64(-1)
		if s.WallClock != nil {
			ns = s.WallClock() - start
		}
		s.CampaignObs.Snapshot.AddFork(snap.steps, ns)
	}
	d, ok := w.Recovery.(*dc.DC)
	if !ok {
		return nil, nil, fmt.Errorf("faults: forked recovery is %T, want *dc.DC", w.Recovery)
	}
	return w, d, nil
}

// buildPrefixCache runs the Table 1 template: the clean session under the
// study's exact injection-run configuration, snapshotted every
// snapshotEveryVisits fault-site visits. The template stops once every
// possible fire point is behind it.
func (s *AppStudy) buildPrefixCache() (*prefixCache, error) {
	vc := &visitCounter{}
	var commits []int
	w, _, err := s.open(&prefixSnapshot{}, vc, func(d *dc.DC) { s.armInjection(d, &commits) })
	if err != nil {
		return nil, err
	}
	cache := &prefixCache{}
	if err := cache.capture(s, w, vc.visits, commits); err != nil {
		return nil, err
	}
	// fireAtFor draws from [fireBase, fireHorizon]; past that visit count
	// no injector can still fire, so deeper snapshots would serve nobody.
	horizon := s.fireHorizon()
	last := 0
	for vc.visits < horizon {
		more, err := w.Step()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		if vc.visits >= last+snapshotEveryVisits {
			if err := cache.capture(s, w, vc.visits, commits); err != nil {
				return nil, err
			}
			last = vc.visits
		}
	}
	return cache, nil
}

// buildOSPrefixCache runs the Table 2 template: the clean session under a
// recovery-enabled DC (the OS study's injection-run configuration),
// snapshotted every 1/osSnapshotSlices of the clean duration. An unarmed
// scribble injector and no injector at all are indistinguishable before
// injection, so the template attaches none.
func (o *OSStudy) buildOSPrefixCache() (*prefixCache, error) {
	cleanDur, err := o.cleanDuration()
	if err != nil {
		return nil, err
	}
	w, _, err := o.open(&prefixSnapshot{}, nil, func(*dc.DC) {})
	if err != nil {
		return nil, err
	}
	cache := &prefixCache{}
	if err := cache.capture(o.AppStudy, w, 0, nil); err != nil {
		return nil, err
	}
	// Injection times are drawn from [0.05, 0.95) of the clean duration;
	// snapshots past the draw ceiling would serve nobody.
	horizon := time.Duration(0.95 * float64(cleanDur))
	interval := cleanDur / osSnapshotSlices
	if interval <= 0 {
		interval = 1
	}
	nextAt := w.Clock + interval
	for w.Clock < horizon {
		more, err := w.Step()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		if w.Clock >= nextAt {
			if err := cache.capture(o.AppStudy, w, 0, nil); err != nil {
				return nil, err
			}
			nextAt = w.Clock + interval
		}
	}
	return cache, nil
}
