// Package magic reimplements the paper's second workload: magic, the
// Berkeley VLSI layout editor. It is a real (small) layout engine: named
// layers hold sets of non-overlapping axis-aligned rectangles with true
// rectangle algebra — painting subtracts overlaps before inserting, erasing
// splits tiles into up to four fragments — plus area accounting, a
// design-rule check (minimum spacing between tiles of a layer), and a box
// query. A scripted command session (fixed-ND user input, one command per
// second as in the paper's measurements) drives it; commands that redraw
// the screen produce visible events, and "ts"/DRC commands read the clock
// (transient ND).
//
// Fault points in the geometry kernel implement the seven Table 1 fault
// types: a heap bit flip lands in a stored coordinate (latent until the
// area consistency check), a deleted branch skips overlap subtraction (the
// no-overlap invariant breaks, caught later), an off-by-one shifts a
// fragment boundary, and so on.
package magic

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/sim"
)

// Rect is a half-open axis-aligned rectangle [X1,X2) × [Y1,Y2).
type Rect struct {
	X1, Y1, X2, Y2 int
}

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.X1 >= r.X2 || r.Y1 >= r.Y2 }

// Area returns the rectangle's area.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return (r.X2 - r.X1) * (r.Y2 - r.Y1)
}

// Intersects reports whether two rectangles overlap with positive area.
func (r Rect) Intersects(o Rect) bool {
	return r.X1 < o.X2 && o.X1 < r.X2 && r.Y1 < o.Y2 && o.Y1 < r.Y2
}

// Intersect returns the overlap of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{max(r.X1, o.X1), max(r.Y1, o.Y1), min(r.X2, o.X2), min(r.Y2, o.Y2)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Subtract appends the up-to-four fragments of r outside b to dst and
// returns the extended slice.
//
//failtrans:hotpath
func (r Rect) Subtract(dst []Rect, b Rect) []Rect {
	if !r.Intersects(b) {
		return append(dst, r)
	}
	y1, y2 := max(r.Y1, b.Y1), min(r.Y2, b.Y2)
	for _, f := range [4]Rect{
		// Bands below and above b.
		{r.X1, r.Y1, r.X2, min(r.Y2, b.Y1)},
		{r.X1, max(r.Y1, b.Y2), r.X2, r.Y2},
		// Side fragments within b's vertical span.
		{r.X1, y1, min(r.X2, b.X1), y2},
		{max(r.X1, b.X2), y1, r.X2, y2},
	} {
		if !f.Empty() {
			dst = append(dst, f)
		}
	}
	return dst
}

// Spacing returns the L∞ gap between two disjoint rectangles (0 if they
// touch or overlap).
func (r Rect) Spacing(o Rect) int {
	dx := 0
	if r.X2 <= o.X1 {
		dx = o.X1 - r.X2
	} else if o.X2 <= r.X1 {
		dx = r.X1 - o.X2
	}
	dy := 0
	if r.Y2 <= o.Y1 {
		dy = o.Y1 - r.Y2
	} else if o.Y2 <= r.Y1 {
		dy = r.Y1 - o.Y2
	}
	return max(dx, dy)
}

// Layer is one mask layer's tile set. Invariant: no two rects overlap, and
// Area equals the sum of rect areas.
type Layer struct {
	Name  string
	Rects []Rect
	Area  int

	// spare is the tile buffer the next edit rebuilds Rects into (see cut):
	// the two swap at every Paint and Erase, so an editing session stops
	// allocating tile lists once both have grown. A Layer owns spare, so
	// two live copies of one Layer value must never exist: an edit through
	// one would overwrite the other's Rects.
	spare []Rect
}

// cut removes r's area from the layer's tiles and returns the area
// removed. The surviving tiles and fragments are rebuilt, in order, into
// the spare buffer, which then becomes Rects while the old Rects becomes
// the spare.
//
//failtrans:hotpath
func (layer *Layer) cut(r Rect) int {
	kept := layer.spare[:0]
	removed := 0
	for _, t := range layer.Rects {
		if t.Intersects(r) {
			removed += t.Intersect(r).Area()
			kept = t.Subtract(kept, r)
		} else {
			kept = append(kept, t)
		}
	}
	layer.spare = layer.Rects[:0]
	layer.Rects = kept
	return removed
}

// Phases of the command cycle.
const (
	phaseRead = iota
	phaseApply
	phaseRender
	phaseStamp // reads the clock (transient ND)
	phaseDone
)

// Layout is the magic application.
type Layout struct {
	Layers []Layer

	// Hierarchy: reusable cell definitions and their placed instances;
	// Editing names the cell currently being defined ("" = top level).
	Cells     []Cell
	Instances []Instance
	Editing   string

	Phase int
	// Cmd is the command being applied, read where it lies: a view of the
	// input Ctx.Input returned (the immutable script, or a replay log's
	// record, whose written bytes never move) or, after a restore, of
	// cmdBuf. Nothing writes through it.
	Cmd      []byte
	Commands int
	// LastMsg is what the next render shows. The Layout owns its bytes and
	// rebuilds each reply in place (magic does not fork).
	LastMsg []byte
	// MinSpacing is the design rule for drc.
	MinSpacing int

	ThinkTime time.Duration
	CmdCost   time.Duration

	faultSalt   uint64
	skipOverlap bool

	// Scratch, not state: drcBuf is spacingViolations' sort buffer, fields
	// the command's fields (views of Cmd), opBuf the copy of an opcode a
	// fault corrupts, and cmdBuf the buffer a restore decodes Cmd into.
	drcBuf []drcEntry
	fields [][]byte
	opBuf  []byte
	cmdBuf []byte
}

// New returns a layout with the given layer names.
func New(layerNames ...string) *Layout {
	l := &Layout{ThinkTime: time.Second, CmdCost: 2 * time.Millisecond, MinSpacing: 2}
	for _, n := range layerNames {
		l.Layers = append(l.Layers, Layer{Name: n})
	}
	return l
}

// Script converts textual commands (one per line) into the input script.
func Script(commands []string) [][]byte {
	out := make([][]byte, 0, len(commands))
	for _, c := range commands {
		out = append(out, []byte(c))
	}
	return out
}

// Name implements sim.Program.
func (l *Layout) Name() string { return "magic" }

// Init implements sim.Program.
func (l *Layout) Init(ctx *sim.Ctx) error { return nil }

func (l *Layout) layer(name string) *Layer { return findLayer(l.Layers, name) }

// findLayer returns the named layer of layers, or nil.
func findLayer[N string | []byte](layers []Layer, name N) *Layer {
	for i := range layers {
		// A string(name) comparison operand is compiler-recognized: it
		// aliases name and allocates nothing.
		if layers[i].Name == string(name) {
			return &layers[i]
		}
	}
	return nil
}

// Paint adds r to the layer, subtracting it from existing tiles first so
// the no-overlap invariant holds.
func (l *Layout) Paint(ctx *sim.Ctx, layer *Layer, r Rect) {
	r = l.injectGeometry(ctx, "magic.paint", r, layer)
	if r.Empty() {
		return
	}
	if !l.skipOverlap {
		layer.Area -= layer.cut(r)
	}
	layer.Rects = append(layer.Rects, r)
	layer.Area += r.Area()
}

// Erase removes r's area from the layer.
func (l *Layout) Erase(ctx *sim.Ctx, layer *Layer, r Rect) {
	r = l.injectGeometry(ctx, "magic.erase", r, layer)
	if r.Empty() {
		return
	}
	layer.Area -= layer.cut(r)
}

// DRC counts min-spacing violations on a layer.
func (l *Layout) DRC(layer *Layer) int { return l.spacingViolations(layer.Rects) }

// drcEntry is one tile in the design-rule sweep: the left edge of its
// normalized x-interval and its index in the checked slice.
type drcEntry struct {
	lo, idx int
}

// spacingViolations counts the pairs of rects that overlap, or lie closer
// than MinSpacing without touching: the pairs an all-pairs loop over
// rects[i].Spacing(rects[j]), i < j, counts. It sweeps instead of comparing
// every pair. The tiles are sorted by lo = min(X1, X2), and each tile a is
// paired only with the tiles after it, up to the first whose lo is at least
// max(MinSpacing, 1) past hi(a) = max(a.X1, a.X2).
//
// The stop is safe for any tile orientation, inverted ones included. Let b
// be a later tile with gap = lo(b) − hi(a) ≥ 1. Then b.X1 > a.X2 and
// b.X2 > a.X1, so the two do not intersect, and Spacing's dx is
// b.X1 − a.X2 ≥ gap whichever tile is the receiver. Spacing is at least dx,
// so a gap of at least MinSpacing leaves the pair uncounted, and every tile
// after b has a gap at least as large.
//
// Spacing is asymmetric on inverted tiles (X1 > X2, which HeapBitFlip and
// DestReg can leave behind): Rect{10, 0, 0, 1}.Spacing(Rect{5, 0, 3, 1}) is
// 5, the reverse call 7. So each pair is checked with the tile of lower
// original index as receiver, as the all-pairs loop does, whatever the
// sorted order.
//
// The promised domain is coordinates that fit in an int32, where neither
// the gap nor Spacing can overflow. The entry buffer is the Layout's own,
// grown by doubling to the largest slice checked; it is never marshalled.
//
//failtrans:hotpath
func (l *Layout) spacingViolations(rects []Rect) int {
	if cap(l.drcBuf) < len(rects) {
		//failtrans:alloc doubles, so a session's growing layers cost O(log tiles) allocations; a check that fits reuses it
		l.drcBuf = make([]drcEntry, 0, max(len(rects), 2*cap(l.drcBuf)))
	}
	buf := l.drcBuf[:0]
	for i, r := range rects {
		buf = append(buf, drcEntry{min(r.X1, r.X2), i})
	}
	slices.SortFunc(buf, func(a, b drcEntry) int { return cmp.Compare(a.lo, b.lo) })
	reach := max(l.MinSpacing, 1)
	violations := 0
	for k, e := range buf {
		a := rects[e.idx]
		hi := max(a.X1, a.X2)
		for _, f := range buf[k+1:] {
			if f.lo-hi >= reach {
				break
			}
			r, o := a, rects[f.idx]
			if f.idx < e.idx {
				r, o = o, r
			}
			if r.Intersects(o) {
				violations++ // overlap is always a violation
				continue
			}
			if s := r.Spacing(o); s > 0 && s < l.MinSpacing {
				violations++
			}
		}
	}
	l.drcBuf = buf
	return violations
}

// BoxCount is the box query: the number of the layer's tiles intersecting
// r.
func (l *Layout) BoxCount(layer *Layer, r Rect) int {
	n := 0
	for _, t := range layer.Rects {
		if t.Intersects(r) {
			n++
		}
	}
	return n
}

// check verifies the no-overlap and area invariants of every layer, in the
// top level and in every cell definition.
func (l *Layout) check(ctx *sim.Ctx) bool {
	all := make([]*Layer, 0, len(l.Layers))
	for li := range l.Layers {
		all = append(all, &l.Layers[li])
	}
	for ci := range l.Cells {
		for li := range l.Cells[ci].Layers {
			all = append(all, &l.Cells[ci].Layers[li])
		}
	}
	for _, layer := range all {
		area := 0
		for i, a := range layer.Rects {
			if a.Empty() || a.X2 < a.X1 || a.Y2 < a.Y1 {
				ctx.Crash(fmt.Sprintf("magic: layer %s tile %d degenerate %+v", layer.Name, i, a))
				return false
			}
			area += a.Area()
			for j := i + 1; j < len(layer.Rects); j++ {
				if a.Intersects(layer.Rects[j]) {
					ctx.Crash(fmt.Sprintf("magic: layer %s tiles %d,%d overlap", layer.Name, i, j))
					return false
				}
			}
		}
		if area != layer.Area {
			ctx.Crash(fmt.Sprintf("magic: layer %s area %d != accounted %d", layer.Name, area, layer.Area))
			return false
		}
	}
	return true
}

// Step implements sim.Program: read command → apply → (stamp) → render.
//
//failtrans:hotpath
func (l *Layout) Step(ctx *sim.Ctx) sim.Status {
	switch l.Phase {
	case phaseRead:
		in, ok := ctx.Input()
		if !ok {
			l.Phase = phaseDone
			return sim.Ready
		}
		l.Cmd = in
		l.Commands++
		l.Phase = phaseApply
		if l.ThinkTime > 0 {
			ctx.Sleep(l.ThinkTime)
			return sim.Sleeping
		}
		return sim.Ready
	case phaseApply:
		ctx.Compute(l.CmdCost)
		l.apply(ctx)
		return sim.Ready
	case phaseStamp:
		l.LastMsg = appendStamp(l.LastMsg, ctx.Now())
		l.Phase = phaseRender
		return sim.Ready
	case phaseRender:
		ctx.OutputBytes(l.LastMsg)
		l.Phase = phaseRead
		return sim.Ready
	default:
		return sim.Done
	}
}

// apply parses and executes one command. Command grammar:
//
//	paint <layer> <x> <y> <w> <h>
//	erase <layer> <x> <y> <w> <h>
//	box   <layer> <x> <y> <w> <h>   (query, renders)
//	drc   <layer>                   (stamps the clock, renders)
//	area  <layer>                   (renders)
//	check                           (consistency check, silent)
//	quit
func (l *Layout) apply(ctx *sim.Ctx) {
	l.Phase = phaseRead // commands that render override below
	l.fields = l.fields[:0]
	for f, rest := apputil.NextField(l.Cmd); len(f) > 0; f, rest = apputil.NextField(rest) {
		l.fields = append(l.fields, f)
	}
	fields := l.fields
	if len(fields) == 0 {
		return
	}
	//failtrans:alloc the hierarchy commands name cells and instances with strings of their own; the measured sessions issue none
	if l.applyCellCommand(fields) {
		return
	}
	kind := ctx.Fault("magic.cmd")
	if kind == sim.StackBitFlip && len(fields) > 1 {
		// The parsed opcode byte flips in flight, in a copy: the command
		// text is the input's own.
		l.opBuf = append(l.opBuf[:0], fields[0]...)
		apputil.FlipBit(l.opBuf, l.salt())
		fields[0] = l.opBuf
	}
	//failtrans:alloc none: a string(fields[0]) switch tag is compiler-recognized and aliases the field
	switch string(fields[0]) {
	case "paint", "erase", "box":
		if len(fields) != 6 {
			l.LastMsg = append(l.LastMsg[:0], "?syntax "...)
			l.LastMsg = append(l.LastMsg, l.Cmd...)
			l.Phase = phaseRender
			return
		}
		var layer *Layer
		if l.Editing != "" {
			//failtrans:alloc editing a cell definition, which the measured sessions never do
			layer = l.cell(l.Editing).cellLayer(string(fields[1]))
		} else {
			layer = findLayer(l.Layers, fields[1])
		}
		if layer == nil {
			l.LastMsg = append(l.LastMsg[:0], "?layer "...)
			l.LastMsg = append(l.LastMsg, fields[1]...)
			l.Phase = phaseRender
			return
		}
		x := int(apputil.ParseInt(fields[2]))
		y := int(apputil.ParseInt(fields[3]))
		wd := int(apputil.ParseInt(fields[4]))
		h := int(apputil.ParseInt(fields[5]))
		r := Rect{x, y, x + wd, y + h}
		switch fields[0][0] { // the opcode is paint, erase or box
		case 'p':
			l.Paint(ctx, layer, r)
		case 'e':
			l.Erase(ctx, layer, r)
		default:
			l.LastMsg = appendNamed(l.LastMsg[:0], "box ", layer.Name, l.BoxCount(layer, r), " tiles")
			l.Phase = phaseRender
		}
	case "drc":
		layer := findLayer(l.Layers, field(fields, 1))
		if layer == nil {
			l.LastMsg = append(l.LastMsg[:0], "?layer"...)
			l.Phase = phaseRender
			return
		}
		ctx.Compute(time.Duration(len(layer.Rects)) * 50 * time.Microsecond)
		v := l.DRC(layer)
		l.LastMsg = appendNamed(l.LastMsg[:0], "drc ", layer.Name, v, " violations")
		l.Phase = phaseStamp
	case "area":
		layer := findLayer(l.Layers, field(fields, 1))
		if layer == nil {
			l.LastMsg = append(l.LastMsg[:0], "?layer"...)
			l.Phase = phaseRender
			return
		}
		l.LastMsg = appendNamed(l.LastMsg[:0], "area ", layer.Name, layer.Area, " in ")
		l.LastMsg = strconv.AppendInt(l.LastMsg, int64(len(layer.Rects)), 10)
		l.LastMsg = append(l.LastMsg, " tiles"...)
		l.Phase = phaseRender
	case "check":
		//failtrans:alloc the consistency check on request: it gathers every layer of every cell, and a violation is reported through fmt
		l.check(ctx)
	case "quit":
		l.Phase = phaseDone
	default:
		l.LastMsg = append(l.LastMsg[:0], "?cmd "...)
		l.LastMsg = append(l.LastMsg, fields[0]...)
		l.Phase = phaseRender
	}
}

func field(fields [][]byte, i int) []byte {
	if i < len(fields) {
		return fields[i]
	}
	return nil
}

// appendNamed appends a reply about a named layer, in the format
// fmt.Sprintf("%s%s: %d%s", head, name, n, tail).
func appendNamed(b []byte, head, name string, n int, tail string) []byte {
	b = append(b, head...)
	b = append(b, name...)
	b = append(b, ": "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, tail...)
}

// appendStamp appends the clock stamp a drc reply ends with, in the format
// fmt.Sprintf(" @%dms", now/time.Millisecond).
func appendStamp(b []byte, now time.Duration) []byte {
	b = append(b, " @"...)
	b = strconv.AppendInt(b, int64(now/time.Millisecond), 10)
	return append(b, "ms"...)
}

// injectGeometry applies the armed fault to a geometry operation.
func (l *Layout) injectGeometry(ctx *sim.Ctx, site string, r Rect, layer *Layer) Rect {
	switch ctx.Fault(site) {
	case sim.HeapBitFlip:
		// Corrupt a stored coordinate of an existing tile: latent until
		// the next check/DRC-triggered invariant test.
		if len(layer.Rects) > 0 {
			s := l.salt()
			t := &layer.Rects[int(s)%len(layer.Rects)]
			switch s % 4 {
			case 0:
				t.X1 ^= 1 << (s % 8)
			case 1:
				t.Y1 ^= 1 << (s % 8)
			case 2:
				t.X2 ^= 1 << (s % 8)
			default:
				t.Y2 ^= 1 << (s % 8)
			}
		}
	case sim.OffByOne:
		r.X2++ // fragment boundary off by one (often silently wrong output)
	case sim.DestReg:
		// The computed X lands in the Y register and the buggy path
		// skips normalization: the swapped tile goes straight into the
		// database, breaking the no-overlap/area invariants.
		bad := Rect{r.Y1, r.X1, r.Y2, r.X2}
		layer.Rects = append(layer.Rects, bad)
		return Rect{}
	case sim.InitFault:
		// The width is never initialized: a degenerate tile is
		// inserted directly (the validation belonged to the skipped
		// initialization path).
		layer.Rects = append(layer.Rects, Rect{r.X1, r.Y1, r.X1, r.Y2})
		return Rect{}
	case sim.DeleteBranch:
		l.skipOverlap = true // the overlap-subtraction branch is gone
	case sim.DeleteInstr:
		layer.Area += r.Area() // account the paint, skip the insert...
		return Rect{}          // by returning an empty op after accounting
	case sim.StackBitFlip:
		r.X1 ^= 1 << (l.salt() % 16)
	}
	return r
}

func (l *Layout) salt() uint64 {
	l.faultSalt = l.faultSalt*6364136223846793005 + 1442695040888963407
	return l.faultSalt
}

// MarshalState implements sim.Program.
func (l *Layout) MarshalState() ([]byte, error) { return l.AppendState(nil) }

// AppendState implements sim.StateAppender: the commit path encodes the
// layout straight into the checkpoint image.
func (l *Layout) AppendState(dst []byte) ([]byte, error) {
	e := apputil.Enc{B: dst}
	marshalLayers(&e, l.Layers)
	e.Int(l.Phase)
	e.Bytes(l.Cmd)
	e.Int(l.Commands)
	e.Bytes(l.LastMsg)
	e.Int(l.MinSpacing)
	e.I64(int64(l.ThinkTime))
	e.I64(int64(l.CmdCost))
	e.I64(int64(l.faultSalt))
	e.Bool(l.skipOverlap)
	l.marshalCells(&e)
	return e.B, nil
}

// UnmarshalState implements sim.Program.
func (l *Layout) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	l.Layers = unmarshalLayers(&d)
	l.Phase = d.Int()
	l.cmdBuf = d.BytesInto(l.cmdBuf[:0])
	l.Cmd = l.cmdBuf[:len(l.cmdBuf):len(l.cmdBuf)]
	l.Commands = d.Int()
	l.LastMsg = d.BytesInto(l.LastMsg[:0])
	l.MinSpacing = d.Int()
	l.ThinkTime = time.Duration(d.I64())
	l.CmdCost = time.Duration(d.I64())
	l.faultSalt = uint64(d.I64())
	l.skipOverlap = d.Bool()
	l.unmarshalCells(&d)
	return d.Err
}

// The fewest bytes each element of a counted sequence in an image takes:
// the decoder checks a count against the rest of the input (Dec.Count)
// before it sizes a slice by it, so a hostile image cannot make a restore
// allocate more than a small multiple of its own length.
const (
	layerBytes    = 3 * 8 // name length, area, rect count
	rectBytes     = 4 * 8
	cellBytes     = 2 * 8 // name length, layer count
	instanceBytes = 3 * 8 // cell name length, DX, DY
)

// marshalLayers encodes a count-prefixed layer list: each layer's name,
// area and tiles.
func marshalLayers(e *apputil.Enc, layers []Layer) {
	e.Int(len(layers))
	for _, layer := range layers {
		e.Str(layer.Name)
		e.Int(layer.Area)
		e.Int(len(layer.Rects))
		for _, r := range layer.Rects {
			e.Int(r.X1)
			e.Int(r.Y1)
			e.Int(r.X2)
			e.Int(r.Y2)
		}
	}
}

// unmarshalLayers reverses marshalLayers.
func unmarshalLayers(d *apputil.Dec) []Layer {
	layers := make([]Layer, d.Count(layerBytes))
	for i := range layers {
		layer := &layers[i]
		layer.Name = d.Str()
		layer.Area = d.Int()
		layer.Rects = make([]Rect, d.Count(rectBytes))
		for j := range layer.Rects {
			layer.Rects[j] = Rect{d.Int(), d.Int(), d.Int(), d.Int()}
		}
	}
	return layers
}
