package xpilot

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/dc"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// newWorld builds the standard fleet with scripted client input.
func newWorld(t *testing.T, ticks int) *sim.World {
	t.Helper()
	w := sim.NewWorld(21, Fleet(ticks)...)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	for i := 1; i <= 3; i++ {
		w.Procs[i].Ctx().Inputs = KeyScript(strings.Repeat("wad ", 50))
	}
	w.MaxSteps = 2_000_000
	return w
}

func TestGameRunsToCompletion(t *testing.T) {
	w := newWorld(t, 30)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		for _, p := range w.Procs {
			t.Logf("proc %d: %v", p.Index, p.Status())
		}
		t.Fatal("fleet did not finish")
	}
	// Each client rendered every frame.
	for i := 1; i <= 3; i++ {
		if got := len(w.Outputs[i]); got != 30 {
			t.Errorf("client %d rendered %d frames, want 30", i, got)
		}
	}
	// Virtual time ≈ 30 frames at 15 fps = 2 s.
	if w.Clock < 1900*time.Millisecond || w.Clock > 2500*time.Millisecond {
		t.Errorf("clock = %v, want ≈2s", w.Clock)
	}
}

func TestFullSpeedIs15FPS(t *testing.T) {
	w := newWorld(t, 45)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	fps := float64(len(w.Outputs[1])) / w.Clock.Seconds()
	if fps < 14 || fps > 16 {
		t.Errorf("fps = %.1f, want ≈15", fps)
	}
}

func TestShipsMoveAndScore(t *testing.T) {
	w := sim.NewWorld(7, Fleet(60)...)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	// Client 1 thrusts constantly; client 2 fires constantly.
	w.Procs[1].Ctx().Inputs = KeyScript(strings.Repeat("w", 40))
	w.Procs[2].Ctx().Inputs = KeyScript(strings.Repeat(" ", 40))
	w.MaxSteps = 2_000_000
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	srv := w.Procs[0].Prog.(*Server)
	if srv.Ships[0].X == 100 && srv.Ships[0].Y == 400 {
		t.Error("thrusting ship never moved")
	}
	if srv.Ships[0].Fuel == 1000 {
		t.Error("thrust should burn fuel")
	}
}

func TestDirTable(t *testing.T) {
	// Heading 0 points along +x, 64 along +y.
	x, y := dir(0)
	if x != 16 || y != 0 {
		t.Errorf("dir(0) = (%d,%d), want (16,0)", x, y)
	}
	x, y = dir(64)
	if x != 0 || y != 16 {
		t.Errorf("dir(64) = (%d,%d), want (0,16)", x, y)
	}
	x, y = dir(128)
	if x != -16 || y != 0 {
		t.Errorf("dir(128) = (%d,%d), want (-16,0)", x, y)
	}
	x, y = dir(192)
	if x != 0 || y != -16 {
		t.Errorf("dir(192) = (%d,%d), want (0,-16)", x, y)
	}
}

func TestShotHitScores(t *testing.T) {
	s := NewServer(2, 100)
	// Place a shot right next to ship 1, owned by ship 0.
	s.Ships[1].X, s.Ships[1].Y = 500, 500
	s.Shots = []Shot{{X: 495, Y: 500, VX: 0, VY: 0, Owner: 0, TTL: 10}}
	s.physics()
	if s.Ships[0].Score != 1 {
		t.Errorf("owner score = %d, want 1", s.Ships[0].Score)
	}
	if s.Ships[1].Deaths != 1 {
		t.Errorf("victim deaths = %d, want 1", s.Ships[1].Deaths)
	}
	if len(s.Shots) != 0 {
		t.Error("shot should be consumed by the hit")
	}
	// Victim respawned at its spawn point.
	if s.Ships[1].X != 400 || s.Ships[1].Y != 400 {
		t.Errorf("victim at (%d,%d), want respawn (400,400)", s.Ships[1].X, s.Ships[1].Y)
	}
}

func TestShotExpiresAndWallStops(t *testing.T) {
	s := NewServer(1, 100)
	s.Shots = []Shot{
		{X: 300, Y: 700, VX: 0, VY: 0, Owner: 0, TTL: 1},   // expires
		{X: 450, Y: 310, VX: 0, VY: 40, Owner: 0, TTL: 10}, // flies into wall at y≈320
		{X: 300, Y: 600, VX: 4, VY: 0, Owner: 0, TTL: 100}, // survives
	}
	s.physics()
	if len(s.Shots) != 1 {
		t.Errorf("shots after tick = %d, want 1", len(s.Shots))
	}
}

func TestServerStateRoundTrip(t *testing.T) {
	s := NewServer(3, 50)
	s.Tick = 7
	s.Shots = []Shot{{X: 1, Y: 2, VX: 3, VY: 4, Owner: 1, TTL: 9}}
	img, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var s2 Server
	if err := s2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if s2.Tick != 7 || len(s2.Ships) != 3 || len(s2.Shots) != 1 || s2.Shots[0].TTL != 9 {
		t.Error("server state diverged")
	}
	if err := s2.UnmarshalState([]byte{1}); err == nil {
		t.Error("garbage must fail")
	}
}

func TestClientStateRoundTrip(t *testing.T) {
	c := NewClient(2)
	c.Frames = 11
	c.LastFrame = []byte{1, 2, 3}
	img, err := c.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var c2 Client
	if err := c2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if c2.Me != 2 || c2.Frames != 11 || len(c2.LastFrame) != 3 {
		t.Error("client state diverged")
	}
}

// TestGameSurvivesStopFailures: crash the server and a client mid-game
// under CBNDVS-LOG; the game must still finish with all frames rendered
// (frames may repeat, never regress by more than the redo).
func TestGameSurvivesStopFailures(t *testing.T) {
	for _, pol := range []protocol.Policy{protocol.CPVS, protocol.CBNDVSLog} {
		w := newWorld(t, 20)
		d := dc.New(w, pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, 50) // server mid-game
		w.ScheduleStop(2, 30) // one client
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			for _, p := range w.Procs {
				t.Logf("%s: %v", p.Prog.Name(), p.Status())
			}
			t.Fatalf("%s: fleet did not finish after failures", pol.Name)
		}
		if d.Stats.Recoveries < 2 {
			t.Errorf("%s: recoveries = %d, want >= 2", pol.Name, d.Stats.Recoveries)
		}
		// Consistent recovery allows repeats of earlier visible
		// events: a frame may re-render anything already shown, but
		// must never skip ahead of max-so-far + 1, and every frame
		// 1..20 must eventually appear.
		for ci := 1; ci <= 3; ci++ {
			maxSeen := 0
			seen := map[int]bool{}
			for _, o := range w.Outputs[ci] {
				var tick int
				if _, err := fmt.Sscanf(o, "frame %d", &tick); err != nil {
					t.Errorf("client %d: unparsable %q", ci, o)
					break
				}
				if tick > maxSeen+1 {
					t.Errorf("%s client %d: frame skipped ahead %d -> %d", pol.Name, ci, maxSeen, tick)
				}
				seen[tick] = true
				if tick > maxSeen {
					maxSeen = tick
				}
			}
			for f := 1; f <= 20; f++ {
				if !seen[f] {
					t.Errorf("%s client %d: frame %d never rendered", pol.Name, ci, f)
				}
			}
		}
	}
}

// TestFrameLineMatchesFormat: the client's scratch-built frame line is
// byte-for-byte what formatting it with fmt gives, for the client's own
// ship, a frame without it, negative coordinates and a truncated frame.
func TestFrameLineMatchesFormat(t *testing.T) {
	s := NewServer(3, 10)
	s.Tick = 42
	s.Ships[1].X, s.Ships[1].Y, s.Ships[1].Score = -7, 799, 12
	full := append([]byte(nil), s.encodeFrame()...)
	// The formatting the client rendered with before it built the line in
	// scratch.
	format := func(frame []byte, me int) string {
		d := apputil.Dec{B: frame}
		tick := d.Int()
		nships := d.Int()
		var mine string
		for i := 0; i < nships && d.Err == nil; i++ {
			x, y := d.Int(), d.Int()
			h, score := d.Int(), d.Int()
			if i == me-1 {
				mine = fmt.Sprintf("me@(%d,%d) h=%d score=%d", x, y, h, score)
			}
		}
		return fmt.Sprintf("frame %d %s", tick, mine)
	}
	for _, frame := range [][]byte{full, full[:len(full)-20], full[:4], nil} {
		for me := 1; me <= 4; me++ {
			if got, want := string(appendFrameLine(nil, frame, me)), format(frame, me); got != want {
				t.Errorf("%d-byte frame, client %d: %q, want %q", len(frame), me, got, want)
			}
		}
	}
}

// TestFrameEncodeReusesScratch: once the scratch has grown to a frame's
// size, encoding the next frame allocates nothing.
func TestFrameEncodeReusesScratch(t *testing.T) {
	s := NewServer(3, 10)
	s.encodeFrame()
	if n := testing.AllocsPerRun(100, func() { s.Tick++; s.encodeFrame() }); n != 0 {
		t.Errorf("encodeFrame allocates %.0f times per frame, want 0", n)
	}
}
