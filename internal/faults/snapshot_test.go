package faults

import (
	"slices"
	"testing"

	"failtrans/internal/dc"
	"failtrans/internal/obs"
	"failtrans/internal/sim"
)

// TestAppStudySnapshotMatchesScratch is the snapshot engine's acceptance
// bar: the Table 1 aggregate must be byte-identical with snapshots off,
// snapshots on, and snapshots on under a parallel campaign.
func TestAppStudySnapshotMatchesScratch(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		scratch := smallStudy(app)
		scratch.Snapshots = false
		got, err := scratch.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := asJSON(t, got)

		snap := smallStudy(app)
		snap.CampaignObs = obs.NewCampaignMetrics(1)
		rs, err := snap.Run()
		if err != nil {
			t.Fatal(err)
		}
		if j := asJSON(t, rs); j != want {
			t.Errorf("%s: snapshot run diverged from scratch:\n got %s\nwant %s", app, j, want)
		}
		if sn := &snap.CampaignObs.Snapshot; sn.Snapshots == 0 || sn.Forks == 0 {
			t.Errorf("%s: snapshot path not exercised: snapshots=%d forks=%d",
				app, sn.Snapshots, sn.Forks)
		}

		par := smallStudy(app)
		par.Parallel = 4
		par.CampaignObs = obs.NewCampaignMetrics(4)
		rs, err = par.Run()
		if err != nil {
			t.Fatal(err)
		}
		if j := asJSON(t, rs); j != want {
			t.Errorf("%s: parallel snapshot run diverged from scratch:\n got %s\nwant %s", app, j, want)
		}
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
