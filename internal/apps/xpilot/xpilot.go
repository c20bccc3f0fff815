// Package xpilot reimplements the paper's distributed real-time workload: a
// multi-player space game with one server and three clients on four
// simulated machines. The server runs a 15 frames-per-second physics loop —
// ship thrust and rotation, inertial motion, wall bounces, shots with
// time-to-live, hit detection, respawns and scoring — polling for client
// input (select, a transient-ND syscall, plus message receives), stamping
// frames with gettimeofday, and broadcasting state. Clients consume
// scripted keyboard input (fixed ND), send commands, and render every
// received frame (visible events).
//
// As in the paper, the interesting metric is the sustainable frame rate:
// commit costs that exceed the 66.7 ms frame budget push the server's tick
// late, and the measured fps (client renders per virtual second) drops.
package xpilot

import (
	"fmt"
	"strconv"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/sim"
)

// FrameInterval is the 15 fps tick.
const FrameInterval = time.Second / 15

// Arena bounds and physics constants.
const (
	arenaW, arenaH = 1000, 800
	thrustAccel    = 8
	turnStep       = 16 // heading units of 256
	shotSpeed      = 30
	shotTTL        = 20
	hitRadius      = 12
)

// Ship is one player's craft.
type Ship struct {
	X, Y   int
	VX, VY int
	// Heading is in 256ths of a turn.
	Heading int
	Fuel    int
	Score   int
	Deaths  int
}

// Shot is a projectile.
type Shot struct {
	X, Y   int
	VX, VY int
	Owner  int
	TTL    int
}

// Wall is an axis-aligned obstacle.
type Wall struct {
	X1, Y1, X2, Y2 int
}

// Server is process 0: the authoritative game state and physics loop.
type Server struct {
	Ships []Ship
	Shots []Shot
	Walls []Wall

	Tick     int
	MaxTicks int
	// NextTick is the virtual time the next frame is due.
	NextTick time.Duration

	Phase    int // 0 poll, 1 drain, 2 physics, 3 stamp, 4 send, 5 pace
	SendIdx  int
	LastPoll int64
	// NeedSelect interleaves a select poll before each drain receive.
	NeedSelect bool
	// EffectsLeft counts this frame's remaining visual-effect rand
	// draws; EffectSeed holds the latest.
	EffectsLeft int
	EffectSeed  uint64

	PhysicsCost time.Duration

	// frame is scratch, not state: the buffer each frame is encoded into
	// for Ctx.Send, which copies it into the world's message arena.
	frame []byte
}

// gameOver is the one-byte end-of-game message. Ctx.Send copies it, so
// every server sends the same bytes.
var gameOver = []byte{0xff}

// Server phases.
const (
	srvPoll = iota
	srvDrain
	srvPhysics
	srvEffects
	srvStamp
	srvSend
	srvPace
	srvDone
)

// NewServer returns a server for nClients ships running for ticks frames.
func NewServer(nClients, ticks int) *Server {
	s := &Server{MaxTicks: ticks, PhysicsCost: 2 * time.Millisecond}
	for i := 0; i < nClients; i++ {
		s.Ships = append(s.Ships, Ship{
			X: 100 + 300*i, Y: 400, Heading: 64 * i, Fuel: 1000,
		})
	}
	s.Walls = []Wall{
		{0, 0, arenaW, 10}, {0, arenaH - 10, arenaW, arenaH},
		{0, 0, 10, arenaH}, {arenaW - 10, 0, arenaW, arenaH},
		{400, 300, 600, 340},
	}
	return s
}

// Name implements sim.Program.
func (s *Server) Name() string { return "xpilot-server" }

// Init implements sim.Program.
func (s *Server) Init(ctx *sim.Ctx) error { return nil }

// Step implements sim.Program: one commit-relevant event per step. The
// frame is encoded into the server's scratch, so a step allocates nothing
// once the scratch and the shot list have grown to the game's widest frame.
//
//failtrans:hotpath
func (s *Server) Step(ctx *sim.Ctx) sim.Status {
	switch s.Phase {
	case srvPoll:
		if s.Tick >= s.MaxTicks {
			// Tell the clients the game is over, one send per step
			// (the index advances after the send so a commit in the
			// pre-send hook captures a resumable state).
			if s.SendIdx < len(s.Ships) {
				if err := ctx.Send(s.SendIdx+1, gameOver); err != nil {
					//failtrans:alloc cold error path: a send to an unknown process crashes the server
					ctx.Crash(err.Error())
					return sim.Crashed
				}
				s.SendIdx++
				return sim.Ready
			}
			s.Phase = srvDone
			return sim.Done
		}
		// Poll readiness: a transient-ND syscall, as in real xpilot's
		// select loop.
		ret, err := ctx.Syscall("select")
		if err != nil {
			//failtrans:alloc cold error path: a failed select crashes the server
			ctx.Crash(err.Error())
			return sim.Crashed
		}
		s.LastPoll = int64(ret[0][0])
		s.Phase = srvDrain
		return sim.Ready
	case srvDrain:
		// Real xpilot's event loop re-polls select before every
		// recvfrom; each poll is another transient-ND syscall.
		if s.NeedSelect {
			if _, err := ctx.Syscall("select"); err != nil {
				//failtrans:alloc cold error path: a failed select crashes the server
				ctx.Crash(err.Error())
				return sim.Crashed
			}
			s.NeedSelect = false
			return sim.Ready
		}
		m, ok := ctx.Recv()
		if !ok {
			s.Phase = srvPhysics
			return sim.Ready
		}
		s.applyInput(m.From, m.Payload)
		s.NeedSelect = true
		return sim.Ready // keep draining, one receive per step
	case srvPhysics:
		ctx.Compute(s.PhysicsCost)
		s.physics()
		s.Phase = srvEffects
		s.EffectsLeft = 8 + 2*len(s.Shots)
		if s.EffectsLeft > 24 {
			s.EffectsLeft = 24
		}
		return sim.Ready
	case srvEffects:
		// Real xpilot burns rand() on per-frame visual effects —
		// debris, sparks, engine flames — each draw a transient-ND
		// event (one per step, per the runtime contract).
		if s.EffectsLeft <= 0 {
			s.Phase = srvStamp
			return sim.Ready
		}
		s.EffectsLeft--
		s.EffectSeed = ctx.Rand()
		return sim.Ready
	case srvStamp:
		now := ctx.Now()
		if s.NextTick == 0 {
			s.NextTick = now
		}
		s.NextTick += FrameInterval
		s.Tick++
		s.Phase = srvSend
		s.SendIdx = 0
		return sim.Ready
	case srvSend:
		if s.SendIdx >= len(s.Ships) {
			s.Phase = srvPace
			return sim.Ready
		}
		if err := ctx.Send(s.SendIdx+1, s.encodeFrame()); err != nil {
			//failtrans:alloc cold error path: a send to an unknown process crashes the server
			ctx.Crash(err.Error())
			return sim.Crashed
		}
		s.SendIdx++
		return sim.Ready
	case srvPace:
		s.Phase = srvPoll
		s.SendIdx = 0
		if wait := s.NextTick - ctx.NowVirtual(); wait > 0 {
			ctx.Sleep(wait)
			return sim.Sleeping
		}
		return sim.Ready // already late: tick immediately
	default:
		return sim.Done
	}
}

// applyInput handles one client command byte.
func (s *Server) applyInput(from int, payload []byte) {
	idx := from - 1
	if idx < 0 || idx >= len(s.Ships) || len(payload) == 0 {
		return
	}
	ship := &s.Ships[idx]
	switch payload[0] {
	case 'w': // thrust
		if ship.Fuel > 0 {
			dx, dy := dir(ship.Heading)
			ship.VX += dx * thrustAccel / 16
			ship.VY += dy * thrustAccel / 16
			ship.Fuel--
		}
	case 'a':
		ship.Heading = (ship.Heading + turnStep) % 256
	case 'd':
		ship.Heading = (ship.Heading - turnStep + 256) % 256
	case ' ': // fire
		dx, dy := dir(ship.Heading)
		s.Shots = append(s.Shots, Shot{
			X: ship.X, Y: ship.Y,
			VX:    ship.VX + dx*shotSpeed/16,
			VY:    ship.VY + dy*shotSpeed/16,
			Owner: idx, TTL: shotTTL,
		})
	}
}

// dir converts a 256-unit heading to a (x,y) direction scaled by 16 using
// a coarse integer sine table.
func dir(heading int) (int, int) {
	return sin16(heading + 64), sin16(heading) // cos, sin
}

// quarterSin is the quarter-wave table of sin values scaled by 16.
var quarterSin = [17]int{0, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 15, 16, 16, 16}

// sin16 is the sine of a 256-unit heading, scaled by 16.
func sin16(h int) int {
	h %= 256
	if h < 0 {
		h += 256
	}
	switch {
	case h < 64:
		return quarterSin[h/4]
	case h < 128:
		return quarterSin[(128-h)/4]
	case h < 192:
		return -quarterSin[(h-128)/4]
	default:
		return -quarterSin[(256-h)/4]
	}
}

// physics advances the world one tick.
func (s *Server) physics() {
	for i := range s.Ships {
		ship := &s.Ships[i]
		ship.X += ship.VX / 4
		ship.Y += ship.VY / 4
		s.bounce(ship)
	}
	// Shots fly and expire.
	alive := s.Shots[:0]
	for _, sh := range s.Shots {
		sh.X += sh.VX / 4
		sh.Y += sh.VY / 4
		sh.TTL--
		if sh.TTL <= 0 || s.hitsWall(sh.X, sh.Y) {
			continue
		}
		hit := false
		for i := range s.Ships {
			if i == sh.Owner {
				continue
			}
			ship := &s.Ships[i]
			dx, dy := ship.X-sh.X, ship.Y-sh.Y
			if dx*dx+dy*dy <= hitRadius*hitRadius {
				s.Ships[sh.Owner].Score++
				ship.Deaths++
				ship.X, ship.Y = 100+300*i, 400
				ship.VX, ship.VY = 0, 0
				hit = true
				break
			}
		}
		if !hit {
			alive = append(alive, sh)
		}
	}
	s.Shots = alive
}

// bounce reflects a ship off walls and arena bounds.
func (s *Server) bounce(ship *Ship) {
	for _, w := range s.Walls {
		if ship.X >= w.X1-4 && ship.X <= w.X2+4 && ship.Y >= w.Y1-4 && ship.Y <= w.Y2+4 {
			// Push out along the smaller penetration axis and flip
			// that velocity.
			ship.VX, ship.VY = -ship.VX/2, -ship.VY/2
			if ship.X < (w.X1+w.X2)/2 {
				ship.X = w.X1 - 5
			} else {
				ship.X = w.X2 + 5
			}
			if ship.Y < (w.Y1+w.Y2)/2 {
				ship.Y = w.Y1 - 5
			} else {
				ship.Y = w.Y2 + 5
			}
		}
	}
	if ship.X < 0 {
		ship.X = 0
	}
	if ship.X >= arenaW {
		ship.X = arenaW - 1
	}
	if ship.Y < 0 {
		ship.Y = 0
	}
	if ship.Y >= arenaH {
		ship.Y = arenaH - 1
	}
}

func (s *Server) hitsWall(x, y int) bool {
	for _, w := range s.Walls {
		if x >= w.X1 && x <= w.X2 && y >= w.Y1 && y <= w.Y2 {
			return true
		}
	}
	return false
}

// encodeFrame serializes tick + ships + shot count into the frame scratch
// and returns it; it is valid until the next call.
func (s *Server) encodeFrame() []byte {
	e := apputil.Enc{B: s.frame[:0]}
	e.Int(s.Tick)
	e.Int(len(s.Ships))
	for _, sh := range s.Ships {
		e.Int(sh.X)
		e.Int(sh.Y)
		e.Int(sh.Heading)
		e.Int(sh.Score)
	}
	e.Int(len(s.Shots))
	s.frame = e.B
	return s.frame
}

// MarshalState implements sim.Program.
func (s *Server) MarshalState() ([]byte, error) { return s.AppendState(nil) }

// AppendState implements sim.StateAppender: the commit path encodes the
// server straight into the checkpoint image.
func (s *Server) AppendState(dst []byte) ([]byte, error) {
	e := apputil.Enc{B: dst}
	e.Int(len(s.Ships))
	for _, sh := range s.Ships {
		e.Int(sh.X)
		e.Int(sh.Y)
		e.Int(sh.VX)
		e.Int(sh.VY)
		e.Int(sh.Heading)
		e.Int(sh.Fuel)
		e.Int(sh.Score)
		e.Int(sh.Deaths)
	}
	e.Int(len(s.Shots))
	for _, sh := range s.Shots {
		e.Int(sh.X)
		e.Int(sh.Y)
		e.Int(sh.VX)
		e.Int(sh.VY)
		e.Int(sh.Owner)
		e.Int(sh.TTL)
	}
	e.Int(len(s.Walls))
	for _, w := range s.Walls {
		e.Int(w.X1)
		e.Int(w.Y1)
		e.Int(w.X2)
		e.Int(w.Y2)
	}
	e.Int(s.Tick)
	e.Int(s.MaxTicks)
	e.I64(int64(s.NextTick))
	e.Int(s.Phase)
	e.Int(s.SendIdx)
	e.I64(s.LastPoll)
	e.Bool(s.NeedSelect)
	e.Int(s.EffectsLeft)
	e.I64(int64(s.EffectSeed))
	e.I64(int64(s.PhysicsCost))
	return e.B, nil
}

// UnmarshalState implements sim.Program.
func (s *Server) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	n := d.Int()
	if n < 0 || n > 64 {
		return fmt.Errorf("xpilot: implausible ship count %d", n)
	}
	s.Ships = make([]Ship, 0, n)
	for i := 0; i < n; i++ {
		s.Ships = append(s.Ships, Ship{
			X: d.Int(), Y: d.Int(), VX: d.Int(), VY: d.Int(),
			Heading: d.Int(), Fuel: d.Int(), Score: d.Int(), Deaths: d.Int(),
		})
	}
	n = d.Int()
	if n < 0 || n > 1<<16 {
		return fmt.Errorf("xpilot: implausible shot count %d", n)
	}
	s.Shots = make([]Shot, 0, n)
	for i := 0; i < n; i++ {
		s.Shots = append(s.Shots, Shot{
			X: d.Int(), Y: d.Int(), VX: d.Int(), VY: d.Int(),
			Owner: d.Int(), TTL: d.Int(),
		})
	}
	n = d.Int()
	if n < 0 || n > 1<<16 {
		return fmt.Errorf("xpilot: implausible wall count %d", n)
	}
	s.Walls = make([]Wall, 0, n)
	for i := 0; i < n; i++ {
		s.Walls = append(s.Walls, Wall{d.Int(), d.Int(), d.Int(), d.Int()})
	}
	s.Tick = d.Int()
	s.MaxTicks = d.Int()
	s.NextTick = time.Duration(d.I64())
	s.Phase = d.Int()
	s.SendIdx = d.Int()
	s.LastPoll = d.I64()
	s.NeedSelect = d.Bool()
	s.EffectsLeft = d.Int()
	s.EffectSeed = uint64(d.I64())
	s.PhysicsCost = time.Duration(d.I64())
	return d.Err
}

// Client is one player process: scripted keyboard input, frame rendering.
type Client struct {
	Server int // server process index (0)
	Me     int // my process index

	Phase      int // 0 maybe-input, 1 send, 2 recv, 3 render
	PendingKey byte
	LastFrame  []byte
	Frames     int
	GameOver   bool
	InputEvery int // consume input when frame count %InputEvery == offset
	RenderCost time.Duration

	// key and line are scratch, not state: the one-byte command Ctx.Send
	// copies, and the buffer a frame's output line is built in before it
	// becomes the retained output string.
	key  [1]byte
	line []byte
}

// Client phases.
const (
	cliInput = iota
	cliSend
	cliRecv
	cliRender
	cliDone
)

// NewClient returns a client for process index me (1-based; server is 0).
func NewClient(me int) *Client {
	return &Client{Me: me, Phase: cliRecv, InputEvery: 5, RenderCost: time.Millisecond}
}

// Name implements sim.Program.
func (c *Client) Name() string { return fmt.Sprintf("xpilot-client%d", c.Me) }

// Init implements sim.Program.
func (c *Client) Init(ctx *sim.Ctx) error { return nil }

// Step implements sim.Program. The rendered line is built in the client's
// scratch, so the one allocation a frame costs is the output string the
// world keeps.
//
//failtrans:hotpath
func (c *Client) Step(ctx *sim.Ctx) sim.Status {
	switch c.Phase {
	case cliInput:
		in, ok := ctx.Input()
		if !ok {
			c.Phase = cliRecv
			return sim.Ready
		}
		c.PendingKey = in[0]
		c.Phase = cliSend
		return sim.Ready
	case cliSend:
		c.key[0] = c.PendingKey
		if err := ctx.Send(c.Server, c.key[:]); err != nil {
			//failtrans:alloc cold error path: a send to an unknown process crashes the client
			ctx.Crash(err.Error())
			return sim.Crashed
		}
		c.Phase = cliRecv
		return sim.Ready
	case cliRecv:
		m, ok := ctx.Recv()
		if !ok {
			return sim.WaitMsg
		}
		if len(m.Payload) == 1 && m.Payload[0] == 0xff {
			c.GameOver = true
			c.Phase = cliDone
			return sim.Done
		}
		c.LastFrame = m.Payload
		c.Phase = cliRender
		return sim.Ready
	case cliRender:
		ctx.Compute(c.RenderCost)
		c.line = appendFrameLine(c.line[:0], c.LastFrame, c.Me)
		ctx.OutputBytes(c.line)
		c.Frames++
		if c.Frames%c.InputEvery == c.Me%c.InputEvery {
			c.Phase = cliInput
		} else {
			c.Phase = cliRecv
		}
		return sim.Ready
	default:
		return sim.Done
	}
}

// appendFrameLine appends client me's rendering of an encoded frame to dst:
// "frame <tick> me@(<x>,<y>) h=<heading> score=<score>", the me@ part only
// when the frame carries ship me.
func appendFrameLine(dst, frame []byte, me int) []byte {
	d := apputil.Dec{B: frame}
	dst = append(dst, "frame "...)
	dst = strconv.AppendInt(dst, int64(d.Int()), 10)
	dst = append(dst, ' ')
	nships := d.Int()
	for i := 0; i < nships && d.Err == nil; i++ {
		x, y := d.Int(), d.Int()
		h, score := d.Int(), d.Int()
		if i == me-1 {
			dst = append(dst, "me@("...)
			dst = strconv.AppendInt(dst, int64(x), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(y), 10)
			dst = append(dst, ") h="...)
			dst = strconv.AppendInt(dst, int64(h), 10)
			dst = append(dst, " score="...)
			dst = strconv.AppendInt(dst, int64(score), 10)
		}
	}
	return dst
}

// MarshalState implements sim.Program.
func (c *Client) MarshalState() ([]byte, error) { return c.AppendState(nil) }

// AppendState implements sim.StateAppender.
func (c *Client) AppendState(dst []byte) ([]byte, error) {
	e := apputil.Enc{B: dst}
	e.Int(c.Server)
	e.Int(c.Me)
	e.Int(c.Phase)
	e.B = append(e.B, c.PendingKey)
	e.Bytes(c.LastFrame)
	e.Int(c.Frames)
	e.Bool(c.GameOver)
	e.Int(c.InputEvery)
	e.I64(int64(c.RenderCost))
	return e.B, nil
}

// UnmarshalState implements sim.Program.
func (c *Client) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	c.Server = d.Int()
	c.Me = d.Int()
	c.Phase = d.Int()
	c.PendingKey = d.Byte()
	c.LastFrame = d.Bytes()
	c.Frames = d.Int()
	c.GameOver = d.Bool()
	c.InputEvery = d.Int()
	c.RenderCost = time.Duration(d.I64())
	return d.Err
}

// Fleet builds the standard four-process world programs: server + three
// clients, running for `ticks` frames.
func Fleet(ticks int) []sim.Program {
	return []sim.Program{
		NewServer(3, ticks),
		NewClient(1),
		NewClient(2),
		NewClient(3),
	}
}

// KeyScript builds a client input script from a key string.
func KeyScript(keys string) [][]byte {
	out := make([][]byte, 0, len(keys))
	for i := 0; i < len(keys); i++ {
		out = append(out, []byte{keys[i]})
	}
	return out
}
