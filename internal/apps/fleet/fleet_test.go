package fleet

import (
	"fmt"
	"testing"
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// run builds and runs a fleet world, returning it for inspection.
func run(t *testing.T, cfg Config, scan bool, pol *protocol.Policy) *sim.World {
	t.Helper()
	w := sim.NewWorld(17, Fleet(cfg)...)
	w.ScanSched = scan
	w.RecordTrace = false
	w.MaxSteps = 10_000_000
	if pol != nil {
		d := dc.New(w, *pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFleetRunsToCompletion(t *testing.T) {
	cfg := Sized(200)
	w := run(t, cfg, false, nil)
	if !w.AllDone() {
		for _, p := range w.Procs {
			if p.Status() != sim.Done {
				t.Logf("proc %d (%s): %v", p.Index, p.Prog.Name(), p.Status())
			}
		}
		t.Fatal("fleet did not finish")
	}
	// Every reporter printed one line per round, nobody else printed.
	want := cfg.Reporters * cfg.Rounds
	if got := len(w.GlobalOutputs()); got != want {
		t.Fatalf("visible outputs = %d, want %d (= reporters×rounds)", got, want)
	}
	// Virtual time is bounded by rounds of think time, not fleet size.
	if w.Clock > time.Second {
		t.Errorf("clock = %v, want well under 1s", w.Clock)
	}
}

// TestFleetScanIndexedIdentical: the readiness index reproduces the legacy
// scan byte-identically on the fleet workload — same outputs, clock, step
// count, and per-proc event positions.
func TestFleetScanIndexedIdentical(t *testing.T) {
	cfg := Sized(300)
	a := run(t, cfg, true, nil)
	b := run(t, cfg, false, nil)
	if a.Clock != b.Clock || a.StepCount() != b.StepCount() || a.EventCount != b.EventCount {
		t.Fatalf("scan (clock=%v steps=%d events=%d) != indexed (clock=%v steps=%d events=%d)",
			a.Clock, a.StepCount(), a.EventCount, b.Clock, b.StepCount(), b.EventCount)
	}
	if fmt.Sprint(a.GlobalOutputs()) != fmt.Sprint(b.GlobalOutputs()) {
		t.Fatal("scan and indexed schedulers produced different visible output")
	}
	for i := range a.Procs {
		if a.Procs[i].Steps != b.Procs[i].Steps {
			t.Fatalf("proc %d: scan %d steps, indexed %d", i, a.Procs[i].Steps, b.Procs[i].Steps)
		}
	}
}

// TestFleetUnderProtocols: the fleet satisfies the checkpoint contract, so
// it completes under an uncoordinated and a coordinated protocol, and the
// visible output matches the unrecovered baseline.
func TestFleetUnderProtocols(t *testing.T) {
	cfg := Sized(120)
	base := run(t, cfg, false, nil)
	for _, name := range []string{"CPVS", "CPV-2PC"} {
		pol, err := protocol.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w := run(t, cfg, false, &pol)
		if !w.AllDone() {
			t.Fatalf("%s: fleet did not finish", name)
		}
		// Commit costs shift the global interleaving, but each process's
		// own visible sequence must match the baseline exactly.
		for i := range w.Outputs {
			if fmt.Sprint(w.Outputs[i]) != fmt.Sprint(base.Outputs[i]) {
				t.Fatalf("%s: proc %d visible output differs from baseline", name, i)
			}
		}
	}
}

// TestFleetStateRoundTrip: marshal → unmarshal reproduces server and client
// state.
func TestFleetStateRoundTrip(t *testing.T) {
	s := NewServer(Sized(100), 0)
	s.Byes = 3
	s.Pending = []reply{{To: 9, Payload: []byte{msgReply, 1, 2}}}
	blob, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(Sized(100), 0)
	if err := s2.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if s2.Byes != 3 || len(s2.Pending) != 1 || s2.Pending[0].To != 9 {
		t.Fatalf("server state did not round-trip: %+v", s2)
	}
	c := NewClient(Sized(100), 4)
	c.Phase = clAwait
	c.Round = 7
	blob, err = c.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(Sized(100), 4)
	if err := c2.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if c2.Phase != clAwait || c2.Round != 7 {
		t.Fatalf("client state did not round-trip: %+v", c2)
	}
}
