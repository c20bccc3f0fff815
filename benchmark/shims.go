package main

import (
	"failtrans/internal/dc"
	"failtrans/internal/event"
	"failtrans/internal/obs"
	"failtrans/internal/sim"
	"failtrans/internal/vista"
)

// The shims are timing wrappers around the three interfaces the layers meet
// at — sim.Program, sim.Recovery, sim.OS. They only read the clock and
// forward: a shimmed world must produce the same virtual clock, commits,
// steps and outputs as a bare one (shim_test.go).

// progShim times a program's Step and its state (un)marshalling.
type progShim struct {
	inner sim.Program
	t     *tracer
}

func (s *progShim) Name() string          { return s.inner.Name() }
func (s *progShim) Init(c *sim.Ctx) error { return s.inner.Init(c) }
func (s *progShim) Step(c *sim.Ctx) sim.Status {
	// A panicking step is a crash the scheduler recovers from; the
	// deferred exit keeps the span stack balanced through the unwind.
	s.t.enter(layerStep)
	defer s.t.exit()
	return s.inner.Step(c)
}

// marshalSpan books one (un)marshal call of n state bytes.
func (t *tracer) marshalSpan(start int64, n int) {
	t.leaf(layerMarshal, start)
	t.bytes += int64(n)
}

func (s *progShim) MarshalState() ([]byte, error) {
	if s.t.muted {
		return s.inner.MarshalState()
	}
	start := s.t.clock()
	b, err := s.inner.MarshalState()
	s.t.marshalSpan(start, len(b))
	return b, err
}

func (s *progShim) UnmarshalState(data []byte) error {
	start := s.t.clock()
	err := s.inner.UnmarshalState(data)
	s.t.marshalSpan(start, len(data))
	return err
}

// The optional program interfaces are forwarded by facets, embedded next to
// progShim only when the wrapped program has them, so type assertions in
// sim and dc see exactly what they would see on the bare program.

type checkerFacet struct {
	c sim.Checker
	t *tracer
}

func (f checkerFacet) CheckConsistency() error {
	start := f.t.clock()
	err := f.c.CheckConsistency()
	f.t.leaf(layerStep, start) // application code, like Step
	return err
}

type partialFacet struct {
	p sim.PartialState
	t *tracer
}

func (f partialFacet) MarshalEssential() ([]byte, error) {
	if f.t.muted {
		return f.p.MarshalEssential()
	}
	start := f.t.clock()
	b, err := f.p.MarshalEssential()
	f.t.marshalSpan(start, len(b))
	return b, err
}

func (f partialFacet) UnmarshalEssential(data []byte) error {
	start := f.t.clock()
	err := f.p.UnmarshalEssential(data)
	f.t.marshalSpan(start, len(data))
	return err
}

type forkerFacet struct {
	f sim.Forker
	t *tracer
}

// Fork keeps the copy instrumented.
func (f forkerFacet) Fork() (sim.Program, error) {
	p, err := f.f.Fork()
	if err != nil {
		return nil, err
	}
	return wrapProgram(p, f.t), nil
}

type freezerFacet struct{ f sim.Freezer }

func (f freezerFacet) Freeze() { f.f.Freeze() }

// wrapProgram returns p behind a progShim exposing exactly p's optional
// interfaces (Checker, PartialState, Forker, Freezer).
func wrapProgram(p sim.Program, t *tracer) sim.Program {
	b := &progShim{p, t}
	c, hasC := p.(sim.Checker)
	ps, hasP := p.(sim.PartialState)
	fk, hasF := p.(sim.Forker)
	fz, hasZ := p.(sim.Freezer)
	cf, pf, ff, zf := checkerFacet{c, t}, partialFacet{ps, t}, forkerFacet{fk, t}, freezerFacet{fz}
	mask := 0
	for i, has := range []bool{hasC, hasP, hasF, hasZ} {
		if has {
			mask |= 1 << i
		}
	}
	switch mask {
	case 0b0000:
		return b
	case 0b0001:
		return struct {
			*progShim
			checkerFacet
		}{b, cf}
	case 0b0010:
		return struct {
			*progShim
			partialFacet
		}{b, pf}
	case 0b0011:
		return struct {
			*progShim
			checkerFacet
			partialFacet
		}{b, cf, pf}
	case 0b0100:
		return struct {
			*progShim
			forkerFacet
		}{b, ff}
	case 0b0101:
		return struct {
			*progShim
			checkerFacet
			forkerFacet
		}{b, cf, ff}
	case 0b0110:
		return struct {
			*progShim
			partialFacet
			forkerFacet
		}{b, pf, ff}
	case 0b0111:
		return struct {
			*progShim
			checkerFacet
			partialFacet
			forkerFacet
		}{b, cf, pf, ff}
	case 0b1000:
		return struct {
			*progShim
			freezerFacet
		}{b, zf}
	case 0b1001:
		return struct {
			*progShim
			checkerFacet
			freezerFacet
		}{b, cf, zf}
	case 0b1010:
		return struct {
			*progShim
			partialFacet
			freezerFacet
		}{b, pf, zf}
	case 0b1011:
		return struct {
			*progShim
			checkerFacet
			partialFacet
			freezerFacet
		}{b, cf, pf, zf}
	case 0b1100:
		return struct {
			*progShim
			forkerFacet
			freezerFacet
		}{b, ff, zf}
	case 0b1101:
		return struct {
			*progShim
			checkerFacet
			forkerFacet
			freezerFacet
		}{b, cf, ff, zf}
	case 0b1110:
		return struct {
			*progShim
			partialFacet
			forkerFacet
			freezerFacet
		}{b, pf, ff, zf}
	default:
		return struct {
			*progShim
			checkerFacet
			partialFacet
			forkerFacet
			freezerFacet
		}{b, cf, pf, ff, zf}
	}
}

// recShim times the recovery layer's seven interception methods.
type recShim struct {
	d *dc.DC
	t *tracer
}

func (r *recShim) BeforeEvent(p *sim.Proc, kind event.Kind, nd event.NDClass, label string) {
	r.t.enter(layerDC)
	defer r.t.exit() // a commit that cannot serialize panics through here
	r.d.BeforeEvent(p, kind, nd, label)
}

func (r *recShim) AfterEvent(p *sim.Proc, ev event.Event) {
	r.t.enter(layerDC)
	defer r.t.exit()
	r.d.AfterEvent(p, ev)
}

func (r *recShim) EndStep(p *sim.Proc) {
	r.t.enter(layerDC)
	defer r.t.exit()
	r.d.EndStep(p)
}

func (r *recShim) OnBlocked(p *sim.Proc) bool {
	r.t.enter(layerDC)
	defer r.t.exit()
	return r.d.OnBlocked(p)
}

func (r *recShim) SupplyND(p *sim.Proc, label string) ([]byte, bool) {
	r.t.enter(layerDC)
	defer r.t.exit()
	return r.d.SupplyND(p, label)
}

func (r *recShim) RecordND(p *sim.Proc, label string, val []byte) bool {
	r.t.enter(layerDC)
	defer r.t.exit()
	return r.d.RecordND(p, label, val)
}

func (r *recShim) OnCrash(p *sim.Proc, reason string) bool {
	r.t.enter(layerDC)
	defer r.t.exit()
	return r.d.OnCrash(p, reason)
}

// osShim times the simulated kernel.
type osShim struct {
	inner sim.OS
	t     *tracer
}

func (o *osShim) Call(pid int, name string, args [][]byte) ([][]byte, event.NDClass, error) {
	start := o.t.clock()
	ret, nd, err := o.inner.Call(pid, name, args)
	o.t.leaf(layerKernel, start)
	return ret, nd, err
}

func (o *osShim) SaveProcState(pid int) []byte {
	if o.t.muted {
		return o.inner.SaveProcState(pid)
	}
	start := o.t.clock()
	b := o.inner.SaveProcState(pid)
	o.t.leaf(layerKernelSave, start)
	return b
}

func (o *osShim) RestoreProcState(pid int, blob []byte) {
	start := o.t.clock()
	o.inner.RestoreProcState(pid, blob)
	o.t.leaf(layerKernelSave, start)
}

// mirror carves vista out of dc. Discount Checking hides its segments, so
// after every commit the mirror re-marshals the process's checkpoint image
// — the identical byte stream the commit just diffed — into a segment of
// its own and times SetContents + Commit there. The whole detour is booked
// to layerTrace; the timed part is what dc spent in vista for the commit.
type mirror struct {
	t       *tracer
	segs    []*vista.Segment
	bufs    [][]byte
	metrics []obs.VistaMetrics
	regs    []byte

	busy        int64 // ns in SetContents + Commit
	pages       int64 // pages SetContents hashed: every page of every image
	commitBytes int64
}

func newMirror(t *tracer, d *dc.DC) *mirror {
	n := len(d.World.Procs)
	m := &mirror{
		t:       t,
		segs:    make([]*vista.Segment, n),
		bufs:    make([][]byte, n),
		metrics: make([]obs.VistaMetrics, n),
		regs:    make([]byte, 64), // dc's register-file blob size
	}
	for i := range m.segs {
		m.segs[i] = vista.NewSegment(0, d.PageSize)
		m.segs[i].Metrics = &m.metrics[i]
	}
	return m
}

// commitHook is installed as dc.CommitHook.
func (m *mirror) commitHook(p *sim.Proc, label string) {
	m.t.enter(layerTrace)
	defer m.t.exit()
	m.t.muted = true
	img, err := p.AppendCheckpointImage(m.bufs[p.Index][:0], false)
	m.t.muted = false
	if err != nil {
		panic(err) // the commit that triggered the hook just serialized the same state
	}
	m.bufs[p.Index] = img
	start := m.t.clock()
	seg := m.segs[p.Index]
	seg.SetContents(img)
	st := seg.Commit(m.regs)
	m.busy += m.t.clock() - start
	m.pages += int64((seg.Size() + seg.PageSize() - 1) / seg.PageSize())
	m.commitBytes += int64(st.Bytes)
}

// reset forgets the initial checkpoints' accounting, as dc.Attach does for
// its own Stats: the initial commit is setup, not the measured run.
func (m *mirror) reset() {
	for i := range m.metrics {
		m.metrics[i] = obs.VistaMetrics{}
	}
	m.busy, m.pages, m.commitBytes = 0, 0, 0
}

// instrument wraps every program and the OS of w, and — when a recovery
// layer is attached — the layer itself plus a vista mirror. Call it after
// dc.New and before Attach; it returns the mirror (nil without a dc).
func instrument(w *sim.World, d *dc.DC, t *tracer) *mirror {
	for _, p := range w.Procs {
		p.Prog = wrapProgram(p.Prog, t)
	}
	if w.OS != nil {
		w.OS = &osShim{w.OS, t}
	}
	if d == nil {
		return nil
	}
	m := newMirror(t, d)
	d.CommitHook = m.commitHook
	// One goroutine owns the span stack: members of a coordinated commit
	// are diffed in turn. dc asserts both paths byte-identical.
	d.SerialCommit = true
	w.Recovery = &recShim{d, t}
	return m
}
