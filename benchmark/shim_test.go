package main

import (
	"io"
	"testing"

	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// A shimmed, mirrored cell must report the same virtual clock, checkpoint
// count, step count and outputs as the bare cell.
func TestShimsAreTransparentOnCells(t *testing.T) {
	for _, c := range []fig8Cell{
		{"nvi", &protocol.CPVS, stablestore.Rio},
		{"xpilot", &protocol.CPV2PC, stablestore.Rio}, // parallel member diffs bare, serial under the shims
		{"treadmarks", &protocol.CBNDVSLog, stablestore.Disk},
		{app: "magic", medium: stablestore.Rio}, // baseline: no recovery layer
	} {
		bare, _, err := runCell(c, 1, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s bare: %v", c, err)
		}
		tr := newTracer()
		lc := &layerCounts{}
		shimmed, _, err := runCell(c, 1, tr, lc, nil)
		if err != nil {
			t.Fatalf("%s shimmed: %v", c, err)
		}
		if bare != shimmed {
			t.Errorf("%s: bare %+v, shimmed %+v", c, bare, shimmed)
		}
		if bare.steps == 0 || (c.pol != nil && bare.ckpts == 0) {
			t.Errorf("%s: cell did no work: %+v", c, bare)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", c, len(tr.stack))
		}
		if tr.calls(layerStep) != int64(shimmed.steps) {
			t.Errorf("%s: %d Step spans for %d world steps", c, tr.calls(layerStep), shimmed.steps)
		}
		if c.pol != nil && (lc.vistaPages == 0 || lc.pagesDirty == 0) {
			t.Errorf("%s: the mirror saw no pages: %+v", c, lc)
		}
	}
}

func TestShimsAreTransparentOnFleet(t *testing.T) {
	fw := &fleetWorkload{}
	run := func(tr *tracer) rep {
		e := &env{seed: 1, out: io.Discard, layers: map[string]float64{}}
		r, err := fw.runRep(e, 1000, tr, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatal("fleet did not finish")
		}
		return r
	}
	bare, shimmed := run(nil), run(newTracer())
	if bare.digest != shimmed.digest || bare.steps != shimmed.steps {
		t.Errorf("bare digest %x steps %d, shimmed digest %x steps %d", bare.digest, bare.steps, shimmed.digest, shimmed.steps)
	}
}

// A stop failure rolls a shimmed session back through the shims; the
// outcome must match the bare session's, and the layers must reconcile.
func TestShimmedSessionRecovers(t *testing.T) {
	for _, pol := range []protocol.Policy{protocol.CPVS, protocol.CBNDVSLog} {
		tw := &tablesWorkload{pol: pol}
		for _, app := range []string{"nvi", "postgres"} {
			clean, err := tw.runSession(app, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			stopAt := clean.procSteps / 2
			bare, err := tw.runSession(app, stopAt, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			lc := &layerCounts{}
			shimmed, err := tw.runSession(app, stopAt, tr, lc)
			if err != nil {
				t.Fatal(err)
			}
			if bare != shimmed {
				t.Errorf("%s/%s: bare %+v, shimmed %+v", pol.Name, app, bare, shimmed)
			}
			if lc.rollbacks != 1 {
				t.Errorf("%s/%s: %d rollbacks, want 1", pol.Name, app, lc.rollbacks)
			}
			var sum int64
			for _, s := range tr.self {
				sum += s
			}
			if sum != tr.wall {
				t.Errorf("%s/%s: layers sum to %d ns, wall is %d ns", pol.Name, app, sum, tr.wall)
			}
		}
	}
}

// Fake programs for the optional-interface matrix.
type plainProg struct{}

func (plainProg) Name() string                  { return "plain" }
func (plainProg) Init(*sim.Ctx) error           { return nil }
func (plainProg) Step(*sim.Ctx) sim.Status      { return sim.Done }
func (plainProg) MarshalState() ([]byte, error) { return []byte("st"), nil }
func (plainProg) UnmarshalState([]byte) error   { return nil }

type checkerProg struct{ plainProg }

func (checkerProg) CheckConsistency() error { return nil }

type partialProg struct{ plainProg }

func (partialProg) MarshalEssential() ([]byte, error) { return []byte("e"), nil }
func (partialProg) UnmarshalEssential([]byte) error   { return nil }

type forkerProg struct{ plainProg }

func (f forkerProg) Fork() (sim.Program, error) { return f, nil }

type freezerProg struct{ plainProg }

func (freezerProg) Freeze() {}

type partialFreezerProg struct {
	partialProg
	frozen *bool
}

func (p partialFreezerProg) Freeze() { *p.frozen = true }

func optionalSet(p sim.Program) [4]bool {
	_, c := p.(sim.Checker)
	_, ps := p.(sim.PartialState)
	_, f := p.(sim.Forker)
	_, z := p.(sim.Freezer)
	return [4]bool{c, ps, f, z}
}

func TestWrapProgramExposesExactlyTheWrappedInterfaces(t *testing.T) {
	frozen := false
	progs := []sim.Program{
		plainProg{}, checkerProg{}, partialProg{}, forkerProg{}, freezerProg{},
		partialFreezerProg{frozen: &frozen},
		nvi.New("f", nil),  // all four
		postgres.New("db"), // Checker + Forker
	}
	seen := map[[4]bool]bool{}
	for _, p := range progs {
		tr := newTracer()
		w := wrapProgram(p, tr)
		want := optionalSet(p)
		seen[want] = true
		if got := optionalSet(w); got != want {
			t.Errorf("%T: wrapped exposes %v, bare %v (Checker, PartialState, Forker, Freezer)", p, got, want)
		}
		if w.Name() != p.Name() {
			t.Errorf("%T: wrapped name %q", p, w.Name())
		}
		// Forwarding, under an open span as in a traced world.
		tr.enter(layerSim)
		if b, err := w.MarshalState(); err != nil || (want == [4]bool{} && string(b) != "st") {
			t.Errorf("%T: MarshalState = %q, %v", p, b, err)
		}
		if ps, ok := w.(sim.PartialState); ok {
			if _, err := ps.MarshalEssential(); err != nil {
				t.Errorf("%T: MarshalEssential: %v", p, err)
			}
		}
		if f, ok := w.(sim.Forker); ok {
			fp, err := f.Fork()
			if err != nil {
				t.Fatalf("%T: Fork: %v", p, err)
			}
			if got := optionalSet(fp); got != want {
				t.Errorf("%T: fork exposes %v, want %v", p, got, want)
			}
		}
		if z, ok := w.(sim.Freezer); ok {
			z.Freeze()
		}
		tr.exit()
	}
	if !frozen {
		t.Error("Freeze was not forwarded")
	}
	if len(seen) < 7 {
		t.Errorf("only %d interface combinations covered", len(seen))
	}
}
