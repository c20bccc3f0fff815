package treadmarks

import (
	"fmt"
	"strconv"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/sim"
)

// bodiesPerPage is how many bodies fit a DSM page.
const bodiesPerPage = PageSize / BodySize

// Application phases.
const (
	phStamp = iota
	phRead
	phCompute
	phBarrier1
	phWrite
	phBarrier2
	phReport
	phDone
)

// TM is one process of the TreadMarks Barnes-Hut computation: the DSM
// engine plus the phase-structured application driver.
type TM struct {
	DSM *dsm

	NBodies int
	Iters   int
	Iter    int
	Lo, Hi  int // my body slice

	Phase    int
	Cursor   int    // page cursor within Read/Write phases
	Bodies   []Body // gathered view of all bodies
	Updated  []Body // my slice after integration
	Gathered int    // how many pages copied this Read phase

	ReportEvery int
	ForceCost   time.Duration // virtual cost per body force evaluation

	// tree, sendBuf and line are scratch, not state: the octree arena every
	// compute phase rebuilds its tree in, the buffer the outbox head is
	// encoded into for Ctx.Send, which copies it, and the buffer a report
	// line is built in before it becomes the retained output string.
	tree    Octree
	sendBuf []byte
	line    []byte
}

// New builds process `me` of an nprocs-wide run over n bodies for iters
// iterations. n must divide evenly by nprocs.
func New(me, nprocs, n, iters int) (*TM, error) {
	if n%nprocs != 0 {
		return nil, fmt.Errorf("treadmarks: %d bodies not divisible by %d processes", n, nprocs)
	}
	npages := (n + bodiesPerPage - 1) / bodiesPerPage
	chunk := n / nprocs
	t := &TM{
		DSM:         newDSM(me, nprocs, npages),
		NBodies:     n,
		Iters:       iters,
		Lo:          me * chunk,
		Hi:          (me + 1) * chunk,
		Bodies:      make([]Body, n),
		ReportEvery: 5,
		ForceCost:   50 * time.Microsecond,
	}
	return t, nil
}

// Fleet builds all processes of a run.
func Fleet(nprocs, n, iters int) ([]sim.Program, error) {
	progs := make([]sim.Program, 0, nprocs)
	for me := 0; me < nprocs; me++ {
		t, err := New(me, nprocs, n, iters)
		if err != nil {
			return nil, err
		}
		progs = append(progs, t)
	}
	return progs, nil
}

// Name implements sim.Program.
func (t *TM) Name() string { return fmt.Sprintf("treadmarks%d", t.DSM.Me) }

// Init implements sim.Program: write the deterministic initial condition
// into the pages this process initially owns.
func (t *TM) Init(ctx *sim.Ctx) error {
	all := InitBodies(t.NBodies)
	for p := range t.DSM.Pages {
		t.writePage(p, all)
	}
	return nil
}

// writePage lays the relevant bodies of `all` into owned page p.
func (t *TM) writePage(p int, all []Body) {
	buf := t.DSM.Pages[p]
	for j := 0; j < bodiesPerPage; j++ {
		idx := p*bodiesPerPage + j
		if idx >= t.NBodies {
			break
		}
		EncodeBody(buf[j*BodySize:], all[idx])
	}
}

// readPage copies page p's bodies into t.Bodies.
func (t *TM) readPage(p int) {
	buf := t.DSM.Pages[p]
	for j := 0; j < bodiesPerPage; j++ {
		idx := p*bodiesPerPage + j
		if idx >= t.NBodies {
			break
		}
		t.Bodies[idx] = DecodeBody(buf[j*BodySize:])
	}
}

// Step implements sim.Program. Protocol messages are served only while the
// application is blocked on a fault or barrier: serving them eagerly would
// let a FETCH steal a just-granted page before the application ever reads
// it, live-locking the ownership rotation (real DSMs pin a faulted-in page
// until the faulting access completes, for the same reason). A received
// message is decoded as a view of its payload and a sent one is encoded into
// scratch, so the protocol path allocates only to store a page while the
// spare pool is short of one.
//
//failtrans:hotpath
func (t *TM) Step(ctx *sim.Ctx) sim.Status {
	// 1. Drain the protocol outbox, one send per step. The pop happens
	// AFTER the send: a commit taken in the pre-send hook must capture
	// the message still queued, or a rollback to that commit would skip
	// the send and diverge (the runtime's one-event-per-step contract).
	if len(t.DSM.Outbox) > 0 {
		if err := ctx.Send(t.DSM.Outbox[0].To, t.encodeHead()); err != nil {
			//failtrans:alloc cold error path: a send to an unknown process crashes the process
			ctx.Crash(err.Error())
			return sim.Crashed
		}
		t.DSM.popOutbox()
		return sim.Ready
	}
	// 2. Blocked (or finished): serve incoming protocol traffic.
	if t.DSM.AwaitPage >= 0 || t.DSM.BarrierWaiting || t.DSM.LockWaiting || t.Phase == phDone {
		if m, ok := ctx.Recv(); ok {
			dm, err := decodeMsg(m.Payload)
			if err != nil {
				//failtrans:alloc cold error path: a malformed message crashes the process
				ctx.Crash(err.Error())
				return sim.Crashed
			}
			if err := t.DSM.Handle(dm); err != nil {
				//failtrans:alloc cold error path: a protocol violation crashes the process
				ctx.Crash(err.Error())
				return sim.Crashed
			}
			return sim.Ready
		}
		if t.Phase == phDone {
			return sim.Done
		}
		return sim.WaitMsg
	}
	// 3. Application progress.
	return t.progress(ctx)
}

func (t *TM) progress(ctx *sim.Ctx) sim.Status {
	switch t.Phase {
	case phStamp:
		if t.Iter >= t.Iters {
			t.Phase = phDone
			return sim.Done
		}
		ctx.Now() // iteration timestamp: transient ND, as in the real code's timing
		t.Phase = phRead
		t.Cursor = 0
		return sim.Ready
	case phRead:
		if t.Cursor >= t.DSM.NumPages {
			t.Phase = phCompute
			return sim.Ready
		}
		p := t.Cursor
		if !t.DSM.Have(p) {
			t.DSM.Fault(p)
			return sim.Ready // sends + waits follow
		}
		t.readPage(p)
		t.Cursor++
		return sim.Ready
	case phCompute:
		ctx.Compute(time.Duration(t.Hi-t.Lo) * t.ForceCost)
		t.stepBodies()
		t.Phase = phBarrier1
		t.DSM.EnterBarrier()
		return sim.Ready
	case phBarrier1:
		t.Phase = phWrite
		t.Cursor = t.Lo / bodiesPerPage
		return sim.Ready
	case phWrite:
		lastPage := (t.Hi - 1) / bodiesPerPage
		if t.Cursor > lastPage {
			t.Phase = phBarrier2
			t.DSM.EnterBarrier()
			return sim.Ready
		}
		p := t.Cursor
		if !t.DSM.Have(p) {
			t.DSM.Fault(p)
			return sim.Ready
		}
		t.writeMySlice(p)
		t.Cursor++
		return sim.Ready
	case phBarrier2:
		t.Iter++
		if t.DSM.Me == 0 && t.Iter%t.ReportEvery == 0 {
			t.Phase = phReport
		} else {
			t.Phase = phStamp
		}
		return sim.Ready
	case phReport:
		t.line = appendReport(t.line[:0], t.Iter, t.Updated[0])
		ctx.OutputBytes(t.line)
		t.Phase = phStamp
		return sim.Ready
	default:
		return sim.Done
	}
}

// appendReport appends process 0's progress line,
// "iter <n> body0=(<x>,<y>,<z>)" with four decimals, to dst.
func appendReport(dst []byte, iter int, b0 Body) []byte {
	dst = append(dst, "iter "...)
	dst = strconv.AppendInt(dst, int64(iter), 10)
	dst = append(dst, " body0=("...)
	dst = strconv.AppendFloat(dst, b0.X, 'f', 4, 64)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, b0.Y, 'f', 4, 64)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, b0.Z, 'f', 4, 64)
	return append(dst, ')')
}

// encodeHead encodes the outbox's head message into the send buffer and
// returns it; it is valid until the next call.
//
//failtrans:hotpath
func (t *TM) encodeHead() []byte {
	e := apputil.Enc{B: t.sendBuf[:0]}
	t.DSM.Outbox[0].Msg.appendTo(&e)
	t.sendBuf = e.B
	return t.sendBuf
}

// stepBodies integrates this process's slice one step into Updated. The
// octree comes out of the process's arena and Updated keeps its backing
// array, so every compute phase after the first allocates nothing.
//
//failtrans:hotpath
func (t *TM) stepBodies() {
	t.Updated = t.tree.step(t.Bodies, t.Lo, t.Hi, t.Updated[:0])
}

// writeMySlice writes the updated bodies that fall in page p.
func (t *TM) writeMySlice(p int) {
	buf := t.DSM.Pages[p]
	for j := 0; j < bodiesPerPage; j++ {
		idx := p*bodiesPerPage + j
		if idx < t.Lo || idx >= t.Hi || idx >= t.NBodies {
			continue
		}
		EncodeBody(buf[j*BodySize:], t.Updated[idx-t.Lo])
	}
}

// FinalBodies extracts this process's authoritative view of its own slice.
func (t *TM) FinalBodies() []Body {
	return append([]Body(nil), t.Updated...)
}

// MarshalState implements sim.Program.
func (t *TM) MarshalState() ([]byte, error) { return t.AppendState(nil) }

// AppendState implements sim.StateAppender: the commit path encodes the
// process straight into the checkpoint image.
func (t *TM) AppendState(dst []byte) ([]byte, error) {
	e := apputil.Enc{B: dst}
	t.DSM.marshal(&e)
	e.Int(t.NBodies)
	e.Int(t.Iters)
	e.Int(t.Iter)
	e.Int(t.Lo)
	e.Int(t.Hi)
	e.Int(t.Phase)
	e.Int(t.Cursor)
	e.Int(len(t.Bodies))
	for _, b := range t.Bodies {
		marshalBody(&e, b)
	}
	e.Int(len(t.Updated))
	for _, b := range t.Updated {
		marshalBody(&e, b)
	}
	e.Int(t.Gathered)
	e.Int(t.ReportEvery)
	e.I64(int64(t.ForceCost))
	return e.B, nil
}

func marshalBody(e *apputil.Enc, b Body) {
	e.F64(b.X)
	e.F64(b.Y)
	e.F64(b.Z)
	e.F64(b.VX)
	e.F64(b.VY)
	e.F64(b.VZ)
	e.F64(b.Mass)
}

func unmarshalBody(d *apputil.Dec) Body {
	return Body{d.F64(), d.F64(), d.F64(), d.F64(), d.F64(), d.F64(), d.F64()}
}

// UnmarshalState implements sim.Program.
func (t *TM) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	dsm, err := unmarshalDSM(&d)
	if err != nil {
		return err
	}
	t.DSM = dsm
	t.NBodies = d.Int()
	t.Iters = d.Int()
	t.Iter = d.Int()
	t.Lo = d.Int()
	t.Hi = d.Int()
	t.Phase = d.Int()
	t.Cursor = d.Int()
	n := d.Int()
	if n < 0 || n > 1<<20 {
		return fmt.Errorf("treadmarks: implausible body count %d", n)
	}
	t.Bodies = make([]Body, 0, n)
	for i := 0; i < n; i++ {
		t.Bodies = append(t.Bodies, unmarshalBody(&d))
	}
	n = d.Int()
	if n < 0 || n > 1<<20 {
		return fmt.Errorf("treadmarks: implausible updated count %d", n)
	}
	t.Updated = make([]Body, 0, n)
	for i := 0; i < n; i++ {
		t.Updated = append(t.Updated, unmarshalBody(&d))
	}
	t.Gathered = d.Int()
	t.ReportEvery = d.Int()
	t.ForceCost = time.Duration(d.I64())
	return d.Err
}

// SequentialOracle runs the same physics without DSM: iters steps over n
// bodies, returning the final bodies. The distributed run must match it
// exactly.
func SequentialOracle(n, iters int) []Body {
	bodies := InitBodies(n)
	var tree Octree
	var next []Body
	for it := 0; it < iters; it++ {
		next = tree.step(bodies, 0, n, next[:0])
		copy(bodies, next)
	}
	return bodies
}
