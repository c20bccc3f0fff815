package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// safeStep runs one Program step, converting a runtime panic — an index out
// of range, a nil dereference — into a crash event, exactly as corrupted
// state crashes a real process. Applications detect faults and fail before
// producing incorrect output (the paper's fail-before-output assumption);
// the panic path models the detection the hardware/runtime provides for
// free.
func (p *Proc) safeStep() (st Status) {
	defer func() {
		if r := recover(); r != nil {
			p.ctx.crashed = true
			p.ctx.crashReason = fmt.Sprintf("runtime panic: %v", r)
			st = Crashed
		}
	}()
	return p.Prog.Step(&p.ctx)
}

// CheckpointImage assembles the image Discount Checking must persist for
// this process: the application state plus the session/kernel state the
// library reconstructs during recovery — the input cursor, the message
// sequence counters, and (when an OS is attached) the per-process kernel
// blob.
//
// With essential=true and a Program implementing PartialState, only the
// application's essential state is captured (the §2.6 mitigation); the
// image records which form it holds so RestoreCheckpointImage can dispatch.
func (p *Proc) CheckpointImage(essential bool) ([]byte, error) {
	return p.AppendCheckpointImage(nil, essential)
}

// appendI64 appends v to buf in the image's little-endian wire format.
func appendI64(buf []byte, v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return append(buf, b[:]...)
}

// AppendCheckpointImage appends the checkpoint image to buf and returns the
// extended slice — the zero-allocation form of CheckpointImage for callers
// (Discount Checking's commit path) that reuse one buffer per process
// across commit cycles. A StateAppender writes its state straight behind the
// session header; the section's length word is reserved first and patched
// once the program has appended, so the image is the same bytes whichever
// way the state arrives.
//
//failtrans:hotpath
func (p *Proc) AppendCheckpointImage(buf []byte, essential bool) ([]byte, error) {
	mode := byte(0)
	ps, partial := p.Prog.(PartialState)
	if partial && essential {
		mode = 1
	}
	buf = append(buf, mode)
	buf = appendI64(buf, int64(p.InputCursor))
	buf = appendI64(buf, p.SendSeq)
	buf = appendI64(buf, int64(len(p.RecvHW)))
	for _, hw := range p.RecvHW {
		buf = appendI64(buf, int64(hw.From))
		buf = appendI64(buf, hw.Idx)
	}
	lenAt := len(buf)
	buf = appendI64(buf, 0)
	var err error
	if mode == 1 {
		var app []byte
		app, err = ps.MarshalEssential()
		buf = append(buf, app...)
	} else {
		buf, err = appendProgramState(buf, p.Prog)
	}
	if err != nil {
		//failtrans:alloc cold error path: a failed marshal aborts the commit, so the formatting never runs in a committing cycle
		return nil, fmt.Errorf("sim: marshal %s state: %w", p.Prog.Name(), err)
	}
	binary.LittleEndian.PutUint64(buf[lenAt:], uint64(len(buf)-lenAt-8))
	var kern []byte
	if p.World.OS != nil {
		kern = p.World.OS.SaveProcState(p.Index)
	}
	buf = appendI64(buf, int64(len(kern)))
	buf = append(buf, kern...)
	return buf, nil
}

// appendProgramState appends prog's full state encoding to dst: straight
// from a StateAppender, else through MarshalState.
func appendProgramState(dst []byte, prog Program) ([]byte, error) {
	if sa, ok := prog.(StateAppender); ok {
		return sa.AppendState(dst)
	}
	b, err := prog.MarshalState()
	return append(dst, b...), err
}

// Checkpoint images are validated with static errors: restore sits on the
// rollback hot path, and a malformed image aborts recovery either way, so
// the byte position a formatted message would carry isn't worth an
// allocation per check.
var (
	errImageEmpty     = errors.New("sim: empty checkpoint image")
	errImageTruncated = errors.New("sim: checkpoint image truncated")
	errImageOverrun   = errors.New("sim: checkpoint image section overruns")
)

// ErrImageSenderOrder refuses a checkpoint image whose receive high-water
// senders repeat or descend. AppendCheckpointImage writes them strictly
// increasing, so such an image was not written by it, and restoring it
// would leave a process whose own image differs from the one it came from.
var ErrImageSenderOrder = errors.New("sim: checkpoint image high-water senders not strictly increasing")

// getI64 decodes the next little-endian word of a checkpoint image,
// advancing *pos.
func getI64(img []byte, pos *int) (int64, error) {
	if *pos+8 > len(img) {
		return 0, errImageTruncated
	}
	v := int64(binary.LittleEndian.Uint64(img[*pos:]))
	*pos += 8
	return v, nil
}

// RestoreCheckpointImage is the inverse of CheckpointImage: it reloads
// application state (full or essential, per the image's mode byte), the
// session counters, and kernel state. Like its Append counterpart it is
// allocation-free in the steady state — the receive high-water marks are
// refilled in place, and image parsing reads words directly out of img.
//
//failtrans:hotpath
func (p *Proc) RestoreCheckpointImage(img []byte) error {
	if len(img) < 1 {
		return errImageEmpty
	}
	mode := img[0]
	img = img[1:]
	pos := 0
	cursor, err := getI64(img, &pos)
	if err != nil {
		return err
	}
	sendSeq, err := getI64(img, &pos)
	if err != nil {
		return err
	}
	nhw, err := getI64(img, &pos)
	if err != nil {
		return err
	}
	// Counts and lengths are compared against what is left of the image,
	// never added to pos first: a hostile word near MaxInt64 would wrap the
	// sum past the check.
	if nhw < 0 || nhw > int64(len(img)-pos)/16 {
		return errImageTruncated
	}
	hwPos := pos
	for i, prev := int64(0), int64(0); i < nhw; i++ {
		s := int64(binary.LittleEndian.Uint64(img[pos:]))
		if i > 0 && s <= prev {
			return ErrImageSenderOrder
		}
		prev = s
		pos += 16
	}
	appLen, err := getI64(img, &pos)
	if err != nil {
		return err
	}
	if appLen < 0 || appLen > int64(len(img)-pos) {
		return errImageOverrun
	}
	app := img[pos : pos+int(appLen)]
	pos += int(appLen)
	kernLen, err := getI64(img, &pos)
	if err != nil {
		return err
	}
	if kernLen < 0 || kernLen > int64(len(img)-pos) {
		return errImageOverrun
	}
	kern := img[pos : pos+int(kernLen)]
	if mode == 1 {
		ps, ok := p.Prog.(PartialState)
		if !ok {
			//failtrans:alloc cold error path: a mode-mismatched image aborts recovery outright
			return fmt.Errorf("sim: essential image for %s, which lacks PartialState", p.Prog.Name())
		}
		if err := ps.UnmarshalEssential(app); err != nil {
			//failtrans:alloc cold error path: a corrupt image aborts recovery outright
			return fmt.Errorf("sim: unmarshal %s essential state: %w", p.Prog.Name(), err)
		}
	} else if err := p.Prog.UnmarshalState(app); err != nil {
		//failtrans:alloc cold error path: a corrupt image aborts recovery outright
		return fmt.Errorf("sim: unmarshal %s state: %w", p.Prog.Name(), err)
	}
	// Everything below here cannot fail: the image is fully validated, so
	// the in-place update leaves no torn state behind.
	p.InputCursor = int(cursor)
	p.SendSeq = sendSeq
	p.RecvHW = p.RecvHW[:0]
	for i := int64(0); i < nhw; i++ {
		s := int64(binary.LittleEndian.Uint64(img[hwPos:]))
		v := int64(binary.LittleEndian.Uint64(img[hwPos+8:]))
		hwPos += 16
		p.RecvHW = append(p.RecvHW, RecvMark{From: int(s), Idx: v})
	}
	if p.World.OS != nil {
		p.World.OS.RestoreProcState(p.Index, kern)
	}
	return nil
}
