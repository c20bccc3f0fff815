package bench

import (
	"hash/fnv"
	"testing"

	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// TestCheckpointImageGolden pins the bytes of every checkpoint image of four
// sessions: FNV-64a over (process index, image length, image) for each commit
// in commit order. The study JSON and the ledgers only witness page and byte
// counts; this witnesses the images themselves, so a change to how an image
// is assembled has to leave every byte where it was. The values were computed
// on the commit before programs appended into dc's buffer (PR 14).
func TestCheckpointImageGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func() (*sim.World, error)
		policy  protocol.Policy
		stops   [][2]int // (process, step) stop failures: images after a rollback count too
		commits int
		want    uint64
	}{
		{"nvi", func() (*sim.World, error) { return BuildWorld("nvi", 1, 11) }, protocol.CPVS, [][2]int{{0, 300}, {0, 700}}, 406, 0x2ad968a49f8cd391},
		{"postgres", func() (*sim.World, error) { return postgresWorld(400), nil }, protocol.CPVS, [][2]int{{0, 250}}, 122, 0x220daf0296558663},
		{"treadmarks-2pc", func() (*sim.World, error) { return BuildWorld("treadmarks", 1, 7) }, protocol.CPV2PC, [][2]int{{1, 60}}, 8, 0x05e0eb70faa593e6},
		{"magic", func() (*sim.World, error) { return BuildWorld("magic", 20, 1) }, protocol.CPVS, [][2]int{{0, 2000}}, 515, 0x476d0c9b30c293b3},
		{"treadmarks-cand", func() (*sim.World, error) { return BuildWorld("treadmarks", 1, 7) }, protocol.CAND, [][2]int{{1, 60}, {2, 200}}, 358, 0xed73a8ecacf573f3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			w.RecordTrace = false
			d := dc.New(w, tc.policy, stablestore.Rio)
			h := fnv.New64a()
			commits := 0
			var word [8]byte
			d.CommitHook = func(p *sim.Proc, label string) {
				// Right after a commit the process is exactly what was
				// committed, so marshalling it again yields that image.
				img, err := p.CheckpointImage(false)
				if err != nil {
					t.Fatal(err)
				}
				word[0], word[1] = byte(p.Index), byte(len(img))
				word[2], word[3], word[4] = byte(len(img)>>8), byte(len(img)>>16), byte(len(img)>>24)
				h.Write(word[:])
				h.Write(img)
				commits++
			}
			if err := d.Attach(); err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.stops {
				w.ScheduleStop(s[0], s[1])
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if d.Stats.Recoveries != len(tc.stops) {
				t.Fatalf("%d recoveries, want %d: the session no longer rolls back where it did", d.Stats.Recoveries, len(tc.stops))
			}
			if got := h.Sum64(); commits != tc.commits || got != tc.want {
				t.Errorf("%d commits hash to %#016x, want %d commits, %#016x", commits, got, tc.commits, tc.want)
			}
		})
	}
}
