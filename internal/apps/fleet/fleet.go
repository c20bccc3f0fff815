// Package fleet is the scalability workload: a parameterizable n-process
// client/server echo fleet for the scheduler and protocol scalability
// curves (overhead vs fleet size at 10²–10⁵ processes). The first
// cfg.Servers processes are sharded echo servers; the remaining
// cfg.Clients processes each run cfg.Rounds request/reply rounds against
// server (client % Servers), thinking a deterministic, client-staggered
// interval between rounds so the fleet's wake-ups spread over virtual time
// instead of arriving as one storm.
//
// Only the first cfg.Reporters clients emit visible output (one line per
// round). That keeps the commit-prior-to-visible protocol family — and in
// particular the coordinated 2PC points, which commit every process per
// visible event — measurable at 10⁴⁺ processes: visible-event count is a
// workload parameter, not O(fleet).
//
// Every program follows the repo's checkpoint contract: at most one
// commit-relevant Ctx event per Step, state mutations after the event, and
// full state round-tripping through MarshalState/UnmarshalState, so the
// fleet runs under every measured protocol and forks/freezes like the
// paper workloads.
package fleet

import (
	"fmt"
	"slices"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/sim"
)

// Config parameterizes one fleet.
type Config struct {
	// Servers is the number of echo shards (≥1).
	Servers int
	// Clients is the number of client processes (≥1).
	Clients int
	// Rounds is the request/reply rounds each client runs.
	Rounds int
	// Payload is the request payload size in bytes.
	Payload int
	// Reporters is how many clients emit visible output each round
	// (clamped to Clients).
	Reporters int
	// Think is the base think time between a client's rounds; each
	// client adds a deterministic stagger derived from its index.
	Think time.Duration
}

// Norm returns cfg with zero fields defaulted and bounds clamped.
func (cfg Config) Norm() Config {
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	if cfg.Payload < 8 {
		cfg.Payload = 8
	}
	if cfg.Reporters < 0 {
		cfg.Reporters = 0
	}
	if cfg.Reporters > cfg.Clients {
		cfg.Reporters = cfg.Clients
	}
	if cfg.Think <= 0 {
		cfg.Think = 10 * time.Millisecond
	}
	return cfg
}

// Sized returns the canonical curve configuration for a fleet of about n
// total processes: one server shard per 64 clients, two rounds, and the
// visible-output width fixed at 16 reporters regardless of n.
func Sized(n int) Config {
	if n < 2 {
		n = 2
	}
	servers := n / 64
	if servers < 1 {
		servers = 1
	}
	clients := n - servers
	reporters := 16
	if reporters > clients {
		reporters = clients
	}
	return Config{
		Servers:   servers,
		Clients:   clients,
		Rounds:    2,
		Payload:   64,
		Reporters: reporters,
		Think:     10 * time.Millisecond,
	}.Norm()
}

// Fleet builds the programs: servers first (pids 0..Servers-1), then
// clients.
func Fleet(cfg Config) []sim.Program {
	cfg = cfg.Norm()
	progs := make([]sim.Program, 0, cfg.Servers+cfg.Clients)
	for s := 0; s < cfg.Servers; s++ {
		progs = append(progs, NewServer(cfg, s))
	}
	for c := 0; c < cfg.Clients; c++ {
		progs = append(progs, NewClient(cfg, c))
	}
	return progs
}

// Message kinds on the wire.
const (
	msgEcho  = iota + 1 // client request: kind, client pid, round, padding
	msgReply            // server reply: same bytes echoed back
	msgBye              // client is finished
)

// clientsOf returns how many clients shard s serves.
func clientsOf(cfg Config, shard int) int {
	n := cfg.Clients / cfg.Servers
	if shard < cfg.Clients%cfg.Servers {
		n++
	}
	return n
}

// reply is one pending echo the server owes. Payload is the request as
// received (an arena payload, immutable and shared with any retained copy of
// the message) or, after UnmarshalState or Fork, the server's own copy; the
// reply is those bytes with the kind byte made msgReply (appendReply).
type reply struct {
	To      int
	Payload []byte
}

// appendReply appends the reply to request req to dst: msgReply, then the
// rest of req.
func appendReply(dst, req []byte) []byte {
	if len(req) == 0 {
		return dst
	}
	dst = append(dst, msgReply)
	return append(dst, req[1:]...)
}

// Server is one echo shard: it answers msgEcho with msgReply (one receive
// step, one send step — one event each) and finishes once every client of
// its shard said bye.
type Server struct {
	Cfg   Config
	Shard int

	Byes    int
	Pending []reply

	// out is the scratch a reply is written into for its send, which
	// copies it. It is not state: a fork or an unmarshalled server starts
	// without it.
	out []byte
}

// NewServer returns shard `shard` of the fleet.
func NewServer(cfg Config, shard int) *Server {
	return &Server{Cfg: cfg.Norm(), Shard: shard}
}

// Name implements sim.Program.
func (s *Server) Name() string { return "fleet-server" }

// Init implements sim.Program.
func (s *Server) Init(ctx *sim.Ctx) error { return nil }

// Step implements sim.Program: flush one owed reply, else consume one
// message. Neither allocates once the queue and the reply scratch have
// grown to the shard's widest burst.
//
//failtrans:hotpath
func (s *Server) Step(ctx *sim.Ctx) sim.Status {
	if len(s.Pending) > 0 {
		r := s.Pending[0]
		s.out = appendReply(s.out[:0], r.Payload)
		if err := ctx.Send(r.To, s.out); err != nil {
			//failtrans:alloc cold error path: a send to an unknown process crashes the server
			ctx.Crash("fleet-server: " + err.Error())
			return sim.Crashed
		}
		s.Pending = slices.Delete(s.Pending, 0, 1)
		return sim.Ready
	}
	if s.Byes >= clientsOf(s.Cfg, s.Shard) {
		return sim.Done
	}
	m, ok := ctx.Recv()
	if !ok {
		return sim.WaitMsg
	}
	switch {
	case len(m.Payload) > 0 && m.Payload[0] == msgEcho:
		s.Pending = append(s.Pending, reply{To: m.From, Payload: m.Payload})
	case len(m.Payload) > 0 && m.Payload[0] == msgBye:
		s.Byes++
	}
	return sim.Ready
}

// MarshalState implements sim.Program.
func (s *Server) MarshalState() ([]byte, error) { return s.AppendState(nil) }

// AppendState implements sim.StateAppender.
func (s *Server) AppendState(dst []byte) ([]byte, error) {
	e := apputil.Enc{B: dst}
	e.Int(s.Shard)
	e.Int(s.Byes)
	e.Int(len(s.Pending))
	for _, r := range s.Pending {
		e.Int(r.To)
		e.Int(len(r.Payload))
		e.B = appendReply(e.B, r.Payload)
	}
	return e.B, nil
}

// UnmarshalState implements sim.Program.
func (s *Server) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	s.Shard = d.Int()
	s.Byes = d.Int()
	n := d.Int()
	s.Pending = s.Pending[:0]
	for i := 0; i < n; i++ {
		to := d.Int()
		payload := d.Bytes()
		s.Pending = append(s.Pending, reply{To: to, Payload: payload})
	}
	if d.Err != nil {
		return fmt.Errorf("fleet-server: unmarshal: %w", d.Err)
	}
	return nil
}

// Fork implements sim.Forker.
func (s *Server) Fork() (sim.Program, error) {
	ns := &Server{Cfg: s.Cfg, Shard: s.Shard, Byes: s.Byes}
	ns.Pending = append([]reply(nil), s.Pending...)
	for i := range ns.Pending {
		ns.Pending[i].Payload = append([]byte(nil), s.Pending[i].Payload...)
	}
	return ns, nil
}

// Client phases.
const (
	clSend   = iota // send the round's request
	clAwait         // consume the reply (then think)
	clReport        // visible output for reporter clients
	clBye           // tell the shard we are finished
	clDone
)

// Client runs Rounds request/reply rounds against its shard.
type Client struct {
	Cfg Config
	// ID is the client index (0-based); the process pid is Servers+ID.
	ID int

	Phase int
	Round int

	// req is the scratch a request or the bye is built in for its send,
	// which copies it; not state.
	req []byte
}

// NewClient returns fleet client id.
func NewClient(cfg Config, id int) *Client {
	return &Client{Cfg: cfg.Norm(), ID: id}
}

// shard is the pid of this client's server.
func (c *Client) shard() int { return c.ID % c.Cfg.Servers }

// think is the deterministic client- and round-staggered pause between
// rounds, spreading the fleet's wake-ups over virtual time.
func (c *Client) think() time.Duration {
	jitter := time.Duration((c.ID*2654435761+c.Round*40503)%4096) * time.Microsecond
	return c.Cfg.Think + jitter
}

// Name implements sim.Program.
func (c *Client) Name() string { return "fleet-client" }

// Init implements sim.Program: stagger the first request so n clients do
// not all fire at virtual time zero.
func (c *Client) Init(ctx *sim.Ctx) error {
	ctx.Compute(time.Duration(c.ID%8192) * 3 * time.Microsecond)
	return nil
}

// request fills the reusable round-request buffer.
func (c *Client) request() []byte {
	if cap(c.req) < c.Cfg.Payload {
		//failtrans:alloc once per client: the buffer is reused every round
		c.req = make([]byte, c.Cfg.Payload)
	}
	c.req = c.req[:c.Cfg.Payload]
	e := apputil.Enc{B: c.req[:0]}
	e.B = append(e.B, msgEcho)
	e.Int(c.ID)
	e.Int(c.Round)
	for len(e.B) < c.Cfg.Payload {
		e.B = append(e.B, byte(len(e.B)))
	}
	c.req = e.B[:c.Cfg.Payload]
	return c.req
}

// Step implements sim.Program. Only a reporter's visible line allocates.
//
//failtrans:hotpath
func (c *Client) Step(ctx *sim.Ctx) sim.Status {
	switch c.Phase {
	case clSend:
		if err := ctx.Send(c.shard(), c.request()); err != nil {
			//failtrans:alloc cold error path: a send to an unknown process crashes the client
			ctx.Crash("fleet-client: " + err.Error())
			return sim.Crashed
		}
		c.Phase = clAwait
		return sim.Ready
	case clAwait:
		m, ok := ctx.Recv()
		if !ok {
			return sim.WaitMsg
		}
		if len(m.Payload) == 0 || m.Payload[0] != msgReply {
			ctx.Crash("fleet-client: bad reply kind")
			return sim.Crashed
		}
		c.Round++
		if c.ID < c.Cfg.Reporters {
			c.Phase = clReport
			return sim.Ready
		}
		return c.nextRound(ctx)
	case clReport:
		//failtrans:alloc visible output is kept in World.Outputs; only the Reporters clients emit it, once a round
		ctx.Output(fmt.Sprintf("c%d r%d ok", c.ID, c.Round))
		return c.nextRound(ctx)
	case clBye:
		c.req = append(c.req[:0], msgBye)
		if err := ctx.Send(c.shard(), c.req); err != nil {
			//failtrans:alloc cold error path: a send to an unknown process crashes the client
			ctx.Crash("fleet-client: " + err.Error())
			return sim.Crashed
		}
		c.Phase = clDone
		return sim.Ready
	default:
		return sim.Done
	}
}

// nextRound schedules the next round (thinking first) or moves to bye.
// Called after this step's one event; Sleep is scheduling, not an event.
func (c *Client) nextRound(ctx *sim.Ctx) sim.Status {
	if c.Round >= c.Cfg.Rounds {
		c.Phase = clBye
		return sim.Ready
	}
	c.Phase = clSend
	ctx.Sleep(c.think())
	return sim.Sleeping
}

// MarshalState implements sim.Program.
func (c *Client) MarshalState() ([]byte, error) { return c.AppendState(nil) }

// AppendState implements sim.StateAppender.
func (c *Client) AppendState(dst []byte) ([]byte, error) {
	e := apputil.Enc{B: dst}
	e.Int(c.ID)
	e.Int(c.Phase)
	e.Int(c.Round)
	return e.B, nil
}

// UnmarshalState implements sim.Program.
func (c *Client) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	c.ID = d.Int()
	c.Phase = d.Int()
	c.Round = d.Int()
	if d.Err != nil {
		return fmt.Errorf("fleet-client: unmarshal: %w", d.Err)
	}
	return nil
}

// Fork implements sim.Forker.
func (c *Client) Fork() (sim.Program, error) {
	return &Client{Cfg: c.Cfg, ID: c.ID, Phase: c.Phase, Round: c.Round}, nil
}
