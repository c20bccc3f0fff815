package magic

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 3}
	if r.Area() != 12 {
		t.Errorf("Area = %d", r.Area())
	}
	if (Rect{2, 2, 2, 5}).Area() != 0 {
		t.Error("degenerate rect must have zero area")
	}
	if !r.Intersects(Rect{3, 2, 10, 10}) {
		t.Error("overlapping rects should intersect")
	}
	if r.Intersects(Rect{4, 0, 8, 3}) {
		t.Error("touching rects (half-open) do not intersect")
	}
	got := r.Intersect(Rect{2, 1, 10, 10})
	if got != (Rect{2, 1, 4, 3}) {
		t.Errorf("Intersect = %+v", got)
	}
}

func TestSubtractFullCover(t *testing.T) {
	r := Rect{1, 1, 3, 3}
	if frags := r.Subtract(nil, Rect{0, 0, 5, 5}); len(frags) != 0 {
		t.Errorf("fully covered rect should vanish, got %v", frags)
	}
}

func TestSubtractDisjoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	frags := r.Subtract(nil, Rect{5, 5, 6, 6})
	if len(frags) != 1 || frags[0] != r {
		t.Errorf("disjoint subtract = %v", frags)
	}
}

func TestSubtractHole(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	frags := r.Subtract(nil, Rect{4, 4, 6, 6})
	if len(frags) != 4 {
		t.Fatalf("hole should leave 4 fragments, got %v", frags)
	}
	area := 0
	for i, f := range frags {
		area += f.Area()
		for j := i + 1; j < len(frags); j++ {
			if f.Intersects(frags[j]) {
				t.Errorf("fragments %d and %d overlap", i, j)
			}
		}
		if f.Intersects(Rect{4, 4, 6, 6}) {
			t.Errorf("fragment %v overlaps the hole", f)
		}
	}
	if area != 100-4 {
		t.Errorf("fragment area = %d, want 96", area)
	}
}

// TestSubtractProperty: for random rects, fragments tile exactly r minus b.
func TestSubtractProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rr := func() Rect {
			x, y := rng.Intn(8), rng.Intn(8)
			return Rect{x, y, x + 1 + rng.Intn(8), y + 1 + rng.Intn(8)}
		}
		r, b := rr(), rr()
		frags := r.Subtract(nil, b)
		// Check point-by-point over the bounding grid.
		for x := r.X1; x < r.X2; x++ {
			for y := r.Y1; y < r.Y2; y++ {
				inB := x >= b.X1 && x < b.X2 && y >= b.Y1 && y < b.Y2
				inFrag := 0
				for _, f := range frags {
					if x >= f.X1 && x < f.X2 && y >= f.Y1 && y < f.Y2 {
						inFrag++
					}
				}
				if inB && inFrag != 0 {
					return false
				}
				if !inB && inFrag != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmedEditsAllocateNothing pins the double-buffered tile lists: once a
// layer's two buffers have grown to its working size, Paint and Erase
// rebuild its tiles without allocating, and the tiles are the ones a fresh
// layer would hold.
func TestWarmedEditsAllocateNothing(t *testing.T) {
	l := New("m1")
	ctx := sim.NewWorld(1, l).Procs[0].Ctx()
	layer := l.layer("m1")
	for _, r := range []Rect{{0, 0, 30, 30}, {40, 0, 60, 20}, {10, 40, 50, 45}} {
		l.Paint(ctx, layer, r)
	}
	// Painting then erasing one rect fragments the tiles under it once;
	// from then on every cycle leaves the same tile set behind.
	cycle := func() {
		l.Paint(ctx, layer, Rect{20, 10, 45, 42})
		l.Erase(ctx, layer, Rect{20, 10, 45, 42})
	}
	cycle()
	want := append([]Rect(nil), layer.Rects...)
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warmed paint+erase cycle allocates %.0f times, want 0", n)
	}
	if !slices.Equal(layer.Rects, want) {
		t.Errorf("tiles after the cycles = %v, want %v", layer.Rects, want)
	}
	if !l.check(ctx) {
		t.Error("the layer's invariants broke")
	}
}

func TestSpacing(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	if s := a.Spacing(Rect{5, 0, 7, 2}); s != 3 {
		t.Errorf("horizontal spacing = %d", s)
	}
	if s := a.Spacing(Rect{0, 6, 2, 8}); s != 4 {
		t.Errorf("vertical spacing = %d", s)
	}
	if s := a.Spacing(Rect{2, 0, 4, 2}); s != 0 {
		t.Errorf("touching spacing = %d", s)
	}
	if s := a.Spacing(Rect{4, 5, 6, 7}); s != 3 {
		t.Errorf("diagonal spacing = %d, want max(dx,dy)=3", s)
	}
}

// drcAllPairs is the design-rule check the sweep replaced, kept as its
// oracle: every pair i < j, with rects[i] as Spacing's receiver.
func drcAllPairs(rects []Rect, minSpacing int) int {
	violations := 0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			a, b := rects[i], rects[j]
			if a.Intersects(b) {
				violations++
				continue
			}
			if s := a.Spacing(b); s > 0 && s < minSpacing {
				violations++
			}
		}
	}
	return violations
}

// randomTiles returns n tiles in a small field, so they overlap and crowd
// each other; some are inverted (X1 > X2 or Y1 > Y2) or degenerate, as the
// geometry faults leave them.
func randomTiles(rng *rand.Rand, n int) []Rect {
	out := make([]Rect, n)
	for i := range out {
		x, y := rng.Intn(60)-10, rng.Intn(60)-10
		r := Rect{x, y, x + rng.Intn(12), y + rng.Intn(12)}
		switch rng.Intn(6) {
		case 0:
			r.X1, r.X2 = r.X2, r.X1
		case 1:
			r.Y1, r.Y2 = r.Y2, r.Y1
		case 2:
			r.X2 = r.X1
		}
		out[i] = r
	}
	return out
}

// TestDRCMatchesAllPairs: the sweep counts what the all-pairs loop counts,
// on a layer's tiles (DRC) and on the flattened hierarchy (FlatDRC), for
// every MinSpacing from -2 to 12.
func TestDRCMatchesAllPairs(t *testing.T) {
	// Spacing is asymmetric on an inverted tile: 5 one way, 7 the other.
	// The lower index is the receiver, so this pair is a violation at
	// MinSpacing 6 and not at 5.
	asym := []Rect{{10, 0, 0, 1}, {5, 0, 3, 1}}
	if a, b := asym[0].Spacing(asym[1]), asym[1].Spacing(asym[0]); a != 5 || b != 7 {
		t.Fatalf("Spacing = %d and %d the other way, want 5 and 7", a, b)
	}
	for _, order := range [][]Rect{asym, {asym[1], asym[0]}} {
		for ms := -2; ms <= 12; ms++ {
			l := New("m1")
			l.MinSpacing = ms
			if got, want := l.spacingViolations(order), drcAllPairs(order, ms); got != want {
				t.Errorf("asymmetric pair %v at MinSpacing %d: %d violations, want %d", order, ms, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		l := New("m1")
		l.MinSpacing = trial%15 - 2
		layer := l.layer("m1")
		layer.Rects = randomTiles(rng, rng.Intn(40))
		if got, want := l.DRC(layer), drcAllPairs(layer.Rects, l.MinSpacing); got != want {
			t.Fatalf("trial %d, MinSpacing %d: DRC = %d, all pairs = %d on %v", trial, l.MinSpacing, got, want, layer.Rects)
		}

		// A hierarchy: two cells placed a few times each, plus the
		// top-level tiles.
		for c := 0; c < 2; c++ {
			cell := Cell{Name: strconv.Itoa(c), Layers: []Layer{{Name: "m1", Rects: randomTiles(rng, rng.Intn(6))}}}
			l.Cells = append(l.Cells, cell)
			for k := rng.Intn(4); k > 0; k-- {
				l.Instances = append(l.Instances, Instance{Cell: cell.Name, DX: rng.Intn(80) - 20, DY: rng.Intn(30)})
			}
		}
		flat := l.Flatten("m1")
		if got, want := l.FlatDRC("m1"), drcAllPairs(flat, l.MinSpacing); got != want {
			t.Fatalf("trial %d, MinSpacing %d: FlatDRC = %d, all pairs = %d on %v", trial, l.MinSpacing, got, want, flat)
		}
	}
}

// TestDRCAllocatesNothing: once the sort buffer has grown to a layer's size,
// a design-rule check allocates nothing.
func TestDRCAllocatesNothing(t *testing.T) {
	l := New("m1")
	layer := l.layer("m1")
	layer.Rects = randomTiles(rand.New(rand.NewSource(1)), 200)
	want := l.DRC(layer)
	if n := testing.AllocsPerRun(100, func() { l.DRC(layer) }); n != 0 {
		t.Errorf("a check of a grown layer allocates %.0f times, want 0", n)
	}
	if got := l.DRC(layer); got != want {
		t.Errorf("DRC = %d on the reused buffer, %d at first", got, want)
	}
}

// run executes a command script with no think time and returns the layout
// and world.
func run(t testing.TB, commands ...string) (*sim.World, *Layout) {
	t.Helper()
	l := New("m1", "m2", "poly")
	l.ThinkTime = 0
	w := sim.NewWorld(3, l)
	w.Procs[0].Ctx().Inputs = Script(commands)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w, l
}

func TestPaintAndArea(t *testing.T) {
	w, l := run(t,
		"paint m1 0 0 10 10",
		"paint m1 5 5 10 10", // overlaps: union area 100+100-25
		"area m1",
		"quit",
	)
	layer := l.layer("m1")
	if layer.Area != 175 {
		t.Errorf("area = %d, want 175 (overlap subtracted)", layer.Area)
	}
	if len(w.Outputs[0]) != 1 || !strings.Contains(w.Outputs[0][0], "175") {
		t.Errorf("outputs = %v", w.Outputs[0])
	}
	// The invariant must hold.
	w2 := sim.NewWorld(1, l)
	if !l.check(w2.Procs[0].Ctx()) {
		t.Error("check failed after overlapping paints")
	}
}

func TestErase(t *testing.T) {
	_, l := run(t,
		"paint m1 0 0 10 10",
		"erase m1 4 4 2 2",
		"quit",
	)
	layer := l.layer("m1")
	if layer.Area != 96 {
		t.Errorf("area after hole = %d, want 96", layer.Area)
	}
	if len(layer.Rects) != 4 {
		t.Errorf("tiles = %d, want 4", len(layer.Rects))
	}
}

func TestBoxQueryAndRender(t *testing.T) {
	w, _ := run(t,
		"paint m2 0 0 4 4",
		"paint m2 10 10 4 4",
		"box m2 0 0 6 6",
		"quit",
	)
	if len(w.Outputs[0]) != 1 || !strings.Contains(w.Outputs[0][0], "1 tiles") {
		t.Errorf("outputs = %v", w.Outputs[0])
	}
}

func TestDRC(t *testing.T) {
	w, _ := run(t,
		"paint poly 0 0 4 4",
		"paint poly 5 0 4 4", // gap 1 < MinSpacing 2
		"paint poly 20 0 4 4",
		"drc poly",
		"quit",
	)
	if len(w.Outputs[0]) != 1 || !strings.Contains(w.Outputs[0][0], "1 violations") {
		t.Errorf("outputs = %v", w.Outputs[0])
	}
	// DRC stamps the clock: the render includes the timestamp.
	if !strings.Contains(w.Outputs[0][0], "@") {
		t.Errorf("drc output missing timestamp: %v", w.Outputs[0])
	}
}

func TestUnknownCommandAndLayer(t *testing.T) {
	w, _ := run(t, "frob m1", "paint nope 0 0 1 1", "paint m1", "quit")
	out := w.Outputs[0]
	if len(out) != 3 {
		t.Fatalf("outputs = %v", out)
	}
	if !strings.HasPrefix(out[0], "?cmd") || !strings.HasPrefix(out[1], "?layer") || !strings.HasPrefix(out[2], "?syntax") {
		t.Errorf("error renders = %v", out)
	}
}

func TestStateRoundTrip(t *testing.T) {
	_, l := run(t, "paint m1 0 0 10 10", "erase m1 2 2 3 3", "paint m2 1 1 5 5", "quit")
	img, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var l2 Layout
	if err := l2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if l2.TotalTiles() != l.TotalTiles() || l2.layer("m1").Area != l.layer("m1").Area {
		t.Error("layout diverged across round trip")
	}
	if err := l2.UnmarshalState([]byte{9}); err == nil {
		t.Error("garbage must fail to unmarshal")
	}
}

// TestPaintInvariantProperty: random paint/erase sequences keep the
// no-overlap and area invariants.
func TestPaintInvariantProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New("x")
		l.ThinkTime = 0
		w := sim.NewWorld(seed, l)
		ctx := w.Procs[0].Ctx()
		layer := l.layer("x")
		for i := 0; i < 40; i++ {
			x, y := rng.Intn(20), rng.Intn(20)
			r := Rect{x, y, x + 1 + rng.Intn(10), y + 1 + rng.Intn(10)}
			if rng.Intn(3) == 0 {
				l.Erase(ctx, layer, r)
			} else {
				l.Paint(ctx, layer, r)
			}
		}
		return l.check(ctx)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// faultAt arms one fault kind at a site after n visits.
type faultAt struct {
	kind sim.FaultKind
	site string
	n    int
	seen int
	done bool
}

func (f *faultAt) At(p *sim.Proc, site string) sim.FaultKind {
	if f.done || site != f.site {
		return sim.NoFault
	}
	f.seen++
	if f.seen < f.n {
		return sim.NoFault
	}
	f.done = true
	return f.kind
}

// TestFaultsBreakInvariants: each geometry fault type leads to a crash via
// the consistency check (or an immediate panic).
func TestFaultsBreakInvariants(t *testing.T) {
	kinds := []sim.FaultKind{
		sim.HeapBitFlip, sim.OffByOne, sim.DestReg, sim.InitFault,
		sim.DeleteBranch, sim.DeleteInstr,
	}
	crashed := 0
	for _, kind := range kinds {
		l := New("m1")
		l.ThinkTime = 0
		w := sim.NewWorld(11, l)
		var cmds []string
		for i := 0; i < 12; i++ {
			cmds = append(cmds, "paint m1 0 0 10 10", "paint m1 5 5 10 10", "erase m1 2 2 4 4", "check")
		}
		cmds = append(cmds, "quit")
		w.Procs[0].Ctx().Inputs = Script(cmds)
		w.Faults = &faultAt{kind: kind, site: "magic.paint", n: 3}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.Procs[0].Crashes > 0 {
			crashed++
		} else {
			t.Logf("%v did not crash magic", kind)
		}
	}
	if crashed < 4 {
		t.Errorf("only %d/6 fault kinds crashed magic", crashed)
	}
}

func TestCellDefinitionAndPlacement(t *testing.T) {
	w, l := run(t,
		"defcell inv",
		"paint m1 0 0 4 4",
		"paint poly 1 1 2 2",
		"endcell",
		"place inv 0 0",
		"place inv 10 0",
		"place inv 20 0",
		"flatarea m1",
		"quit",
	)
	if len(l.Cells) != 1 || l.Cells[0].Name != "inv" {
		t.Fatalf("cells = %+v", l.Cells)
	}
	if len(l.Instances) != 3 {
		t.Fatalf("instances = %d", len(l.Instances))
	}
	// Top-level m1 is empty; flattened area = 3 instances × 16.
	out := w.Outputs[0]
	if len(out) != 1 || !strings.Contains(out[0], "flatarea m1: 48") {
		t.Errorf("outputs = %v", out)
	}
}

func TestFlattenTranslatesInstances(t *testing.T) {
	_, l := run(t,
		"defcell c",
		"paint m1 0 0 2 2",
		"endcell",
		"place c 100 50",
		"quit",
	)
	flat := l.Flatten("m1")
	if len(flat) != 1 || flat[0] != (Rect{100, 50, 102, 52}) {
		t.Errorf("flattened = %v", flat)
	}
}

func TestFlatDRCCatchesCrossInstanceViolations(t *testing.T) {
	w, _ := run(t,
		"defcell c",
		"paint m1 0 0 4 4",
		"endcell",
		"place c 0 0",
		"place c 5 0", // 1 < MinSpacing 2 between instance tiles
		"place c 20 0",
		"flatdrc m1",
		"quit",
	)
	out := w.Outputs[0]
	if len(out) != 1 || !strings.Contains(out[0], "1 violations") {
		t.Errorf("outputs = %v", out)
	}
}

func TestCellTopLevelMixing(t *testing.T) {
	// Top-level paint + instance tiles combine in the flattened view.
	_, l := run(t,
		"paint m1 0 0 3 3",
		"defcell c",
		"paint m1 0 0 2 2",
		"endcell",
		"place c 50 50",
		"quit",
	)
	if got := l.FlatArea("m1"); got != 9+4 {
		t.Errorf("FlatArea = %d, want 13", got)
	}
	// Per-definition invariants still hold.
	w2 := sim.NewWorld(1, l)
	if !l.check(w2.Procs[0].Ctx()) {
		t.Error("check failed with hierarchy present")
	}
}

func TestPlaceUnknownCell(t *testing.T) {
	w, _ := run(t, "place nope 0 0", "quit")
	if len(w.Outputs[0]) != 1 || !strings.HasPrefix(w.Outputs[0][0], "?cell") {
		t.Errorf("outputs = %v", w.Outputs[0])
	}
}

func TestCellStateRoundTrip(t *testing.T) {
	_, l := run(t,
		"defcell c",
		"paint m1 0 0 2 2",
		"endcell",
		"place c 7 9",
		"defcell open",
		"quit",
	)
	img, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var l2 Layout
	if err := l2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if len(l2.Cells) != 2 || len(l2.Instances) != 1 || l2.Editing != "open" {
		t.Errorf("hierarchy diverged: %d cells, %d instances, editing %q",
			len(l2.Cells), len(l2.Instances), l2.Editing)
	}
	if l2.Instances[0] != (Instance{Cell: "c", DX: 7, DY: 9}) {
		t.Errorf("instance = %+v", l2.Instances[0])
	}
}

// TestCellsSurviveRecovery: hierarchy editing with stop failures under
// CBNDVS ends with the same flattened layout as the clean run.
func TestCellsSurviveRecovery(t *testing.T) {
	cmds := []string{
		"defcell nand",
		"paint m1 0 0 6 4",
		"paint poly 1 1 2 6",
		"endcell",
		"place nand 0 0",
		"place nand 10 0",
		"paint m1 30 0 4 4",
		"flatarea m1",
		"flatdrc m1",
		"quit",
	}
	clean := New("m1", "m2", "poly")
	clean.ThinkTime = 0
	wClean := sim.NewWorld(3, clean)
	wClean.Procs[0].Ctx().Inputs = Script(cmds)
	if err := wClean.Run(); err != nil {
		t.Fatal(err)
	}
	want := wClean.Outputs[0]

	for stopAt := 3; stopAt < 25; stopAt += 6 {
		l := New("m1", "m2", "poly")
		l.ThinkTime = 0
		w := sim.NewWorld(3, l)
		w.Procs[0].Ctx().Inputs = Script(cmds)
		d := dc.New(w, protocol.CBNDVS, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, stopAt)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Errorf("stop@%d: did not finish", stopAt)
			continue
		}
		// Squash duplicate re-renders (allowed by consistent
		// recovery) and strip the DRC timestamps — they come from
		// gettimeofday, a transient ND event whose value may
		// legitimately differ across a recovery.
		strip := func(ss []string) string {
			var out []string
			for _, o := range ss {
				if i := strings.Index(o, " @"); i >= 0 {
					o = o[:i]
				}
				if len(out) == 0 || out[len(out)-1] != o {
					out = append(out, o)
				}
			}
			return strings.Join(out, "|")
		}
		if strip(w.Outputs[0]) != strip(want) {
			t.Errorf("stop@%d: outputs %v, want %v", stopAt, w.Outputs[0], want)
		}
	}
}

// TestUnmarshalHostileCounts: an image whose count declares more elements
// than the rest of it can hold is refused before anything is sized by the
// count.
func TestUnmarshalHostileCounts(t *testing.T) {
	// The top level of an image with no cells, instances or edit in
	// progress; the hierarchy section is the last three words.
	top, err := New().MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	top = top[:len(top)-3*8]
	const huge = 1 << 24
	for _, tc := range []struct {
		name  string
		build func(e *apputil.Enc)
	}{
		{"layers", func(e *apputil.Enc) { e.Int(huge) }},
		{"rects", func(e *apputil.Enc) { e.Int(1); e.Str("m1"); e.Int(0); e.Int(huge) }},
		{"max-int rects", func(e *apputil.Enc) { e.Int(1); e.Str("m1"); e.Int(0); e.Int(math.MaxInt64) }},
		{"cells", func(e *apputil.Enc) { e.B = append(e.B, top...); e.Int(huge) }},
		{"cell layers", func(e *apputil.Enc) { e.B = append(e.B, top...); e.Int(1); e.Str("c"); e.Int(huge) }},
		{"cell rects", func(e *apputil.Enc) {
			e.B = append(e.B, top...)
			e.Int(1)
			e.Str("c")
			e.Int(1)
			e.Str("m1")
			e.Int(0)
			e.Int(huge)
		}},
		{"instances", func(e *apputil.Enc) { e.B = append(e.B, top...); e.Int(0); e.Int(huge) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e apputil.Enc
			tc.build(&e)
			var l Layout
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := l.UnmarshalState(e.B)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, apputil.ErrOverrun) {
				t.Errorf("a %d-byte image: err = %v, want ErrOverrun", len(e.B), err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("refusing a %d-byte image allocated %d bytes, want under 1 MiB", len(e.B), n)
			}
		})
	}
}
