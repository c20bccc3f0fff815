package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// layer is one package under internal/ the traced wall is attributed to.
type layer uint8

const (
	layerSim        layer = iota // world construction, Init, scheduler, step loop
	layerStep                    // Program.Step (+ the sim.Ctx glue no interface separates)
	layerMarshal                 // Program (un)marshalling
	layerDC                      // sim.Recovery methods and DC.Attach
	layerKernel                  // OS.Call
	layerKernelSave              // OS.SaveProcState / RestoreProcState
	layerTrace                   // the harness's own work inside the traced region
	numLayers
)

var layerNames = [numLayers]string{"sim", "apps.step", "apps.marshal", "dc", "kernel", "kernel.save", "trace"}

// acc folds every per-call span of one (layer, parent layer) pair.
type acc struct {
	Calls int64
	Busy  int64 // ns between the span's two clock reads
}

type frame struct {
	layer layer
	start int64
	child int64 // ns covered by child spans
}

// tracer attributes a traced region's wall clock to layers. Per-call spans
// (millions on the fleet) are folded into per-(layer, parent) accumulators
// as they end; a layer's self time is its spans' duration minus what their
// child spans covered, so the layers sum to the root spans by construction.
//
// All spans run on the goroutine driving the world: traced worlds commit
// their 2PC members serially (dc.SerialCommit), see README.
type tracer struct {
	clock func() int64 // now, or a synthetic clock under test
	stack []frame
	accs  [numLayers][numLayers]acc
	self  [numLayers]int64
	wall  int64 // total of the root spans
	bytes int64 // state bytes through the marshal shims
	// muted makes the shims forward without accounting while the vista
	// mirror re-marshals through them.
	muted bool
}

func newTracer() *tracer { return &tracer{clock: now, stack: make([]frame, 0, 16)} }

// enter opens a span of layer l under whatever span is open.
func (t *tracer) enter(l layer) {
	t.stack = append(t.stack, frame{layer: l})
	t.stack[len(t.stack)-1].start = t.clock()
}

// exit closes the innermost span.
func (t *tracer) exit() {
	end := t.clock()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - f.start
	t.self[f.layer] += d - f.child
	if len(t.stack) == 0 {
		t.wall += d
		return
	}
	p := &t.stack[len(t.stack)-1]
	p.child += d
	a := &t.accs[f.layer][p.layer]
	a.Calls++
	a.Busy += d
}

// leaf books a childless span that started at start.
func (t *tracer) leaf(l layer, start int64) {
	d := t.clock() - start
	t.self[l] += d
	p := &t.stack[len(t.stack)-1]
	p.child += d
	a := &t.accs[l][p.layer]
	a.Calls++
	a.Busy += d
}

// calls totals a layer's spans over all parents.
func (t *tracer) calls(l layer) (n int64) {
	for p := range t.accs[l] {
		n += t.accs[l][p].Calls
	}
	return n
}

// spanCost calibrates what one shim span costs: inside is the part that
// falls between the span's own clock reads (booked to the span's layer),
// outside the rest (booked to its parent).
func spanCost() (inside, outside float64) {
	const n = 200_000
	t := newTracer()
	t.enter(layerSim)
	start := now()
	for i := 0; i < n; i++ {
		t.enter(layerStep)
		t.exit()
	}
	total := float64(now()-start) / n
	inside = float64(t.accs[layerStep][layerSim].Busy) / n
	return inside, total - inside
}

// settle moves the calibrated cost of the shims' own clock reads out of the
// layers and into layerTrace, and returns the final self times. The moves
// are transfers, so the sum stays the traced wall; a layer too small to
// give up its estimated share gives up what it has.
func (t *tracer) settle(inside, outside float64) [numLayers]float64 {
	var self [numLayers]float64
	for l := range self {
		self[l] = float64(t.self[l])
	}
	move := func(from layer, ns float64) {
		if ns > self[from] {
			ns = self[from]
		}
		self[from] -= ns
		self[layerTrace] += ns
	}
	for l := layer(0); l < numLayers; l++ {
		for p := layer(0); p < numLayers; p++ {
			n := float64(t.accs[l][p].Calls)
			move(l, n*inside)
			move(p, n*outside)
		}
	}
	return self
}

// span is one coarse span (repetition, study, app, cell, injection run),
// kept individually and written out when the run ends.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for a root
	Workload string `json:"workload"`
}

type spanLog struct {
	workload string
	spans    []span
}

// begin opens a coarse span and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Start: now(), Parent: parent, Workload: l.workload})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].End = now() }

// add records a span whose ends were stamped elsewhere.
func (l *spanLog) add(name string, start, end int64, parent int) {
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, Workload: l.workload})
}

type layerRow struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent"`
	Calls  int64  `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
}

// writeTrace writes trace-<workload>.json: the coarse spans plus the folded
// per-(layer, parent) accumulators.
func writeTrace(dir string, l *spanLog, t *tracer) (string, error) {
	out := struct {
		Workload string     `json:"workload"`
		Spans    []span     `json:"spans"`
		Layers   []layerRow `json:"layers"`
	}{Workload: l.workload, Spans: l.spans}
	for c := layer(0); c < numLayers; c++ {
		for p := layer(0); p < numLayers; p++ {
			if a := t.accs[c][p]; a.Calls > 0 {
				out.Layers = append(out.Layers, layerRow{layerNames[c], layerNames[p], a.Calls, a.Busy})
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+l.workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
