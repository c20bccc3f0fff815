package faults

import (
	"testing"

	"failtrans/internal/obs"
)

// TestAppStudyCOWMatchesDeepFork is the COW engine's campaign-level
// acceptance bar: serving injection runs from frozen copy-on-write
// templates must produce byte-identical Table 1 aggregates to deep-copied
// snapshots (which TestAppStudySnapshotMatchesScratch in turn pins against
// the from-scratch loop), while actually exercising the COW path.
func TestAppStudyCOWMatchesDeepFork(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		deep := smallStudy(app)
		deep.COW = false
		deep.CampaignObs = obs.NewCampaignMetrics(1)
		got, err := deep.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := asJSON(t, got)
		if n := deep.CampaignObs.Snapshot.PagesPrivatized; n != 0 {
			t.Errorf("%s: deep-fork study privatized %d pages; COW leaked into the deep path", app, n)
		}

		cow := smallStudy(app)
		cow.CampaignObs = obs.NewCampaignMetrics(1)
		rs, err := cow.Run()
		if err != nil {
			t.Fatal(err)
		}
		if j := asJSON(t, rs); j != want {
			t.Errorf("%s: COW study diverged from deep-fork study:\n got %s\nwant %s", app, j, want)
		}
		sn := &cow.CampaignObs.Snapshot
		if sn.PagesPrivatized == 0 || sn.BytesCOW == 0 {
			t.Errorf("%s: COW path not exercised: pages=%d bytes=%d", app, sn.PagesPrivatized, sn.BytesCOW)
		}
	}
}
