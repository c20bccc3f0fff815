package fleet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"failtrans/internal/apps/apputil"
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

// TestServerRepliesFromRequest: the server queues a request's own bytes and
// writes the reply only into its send scratch and its image. So the image
// holds the reply (msgReply, then the rest of the request), a restored or a
// forked server encodes the same bytes, and the request in the world's
// message arena is never written to.
func TestServerRepliesFromRequest(t *testing.T) {
	w := sim.NewWorld(3, Fleet(Config{Servers: 1, Clients: 2})...)
	w.RecordTrace = false
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	s := w.Procs[0].Prog.(*Server)
	for len(s.Pending) == 0 {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("server queued %d replies before the world stopped (err %v)", len(s.Pending), err)
		}
	}
	r := s.Pending[0]
	if r.Payload[0] != msgEcho {
		t.Fatalf("queued request has kind %d, want msgEcho", r.Payload[0])
	}
	want := apputil.Enc{}
	want.Int(s.Shard)
	want.Int(s.Byes)
	want.Int(1)
	want.Int(r.To)
	want.Bytes(append([]byte{msgReply}, r.Payload[1:]...))
	img, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want.B) {
		t.Fatalf("server image\n%x\nwant\n%x", img, want.B)
	}
	restored := NewServer(s.Cfg, s.Shard)
	if err := restored.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	forked, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]sim.Program{"restored": restored, "forked": forked} {
		if b, err := p.MarshalState(); err != nil || !bytes.Equal(b, img) {
			t.Errorf("%s server encodes %x (err %v), want %x", name, b, err, img)
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("fleet did not finish")
	}
	if r.Payload[0] != msgEcho {
		t.Errorf("the request in the arena was overwritten: kind %d", r.Payload[0])
	}
}
