// Package dc reimplements Discount Checking (Lowell & Chen, CSE-TR-410-99),
// the transparent recovery system the paper's evaluation runs on: per-
// process full-state checkpoints held in a Vista persistent segment over
// reliable memory (or synchronously written to disk, the DC-disk variant),
// interception of every non-deterministic, visible and send event, pluggable
// Save-work commit policies, non-determinism logging, two-phase coordinated
// commits, and rollback with constrained re-execution after a failure.
//
// DC attaches to a sim.World as its Recovery implementation. Commits
// serialize the process's checkpoint image into its segment with page-
// granularity diffing (the analogue of copy-on-write: untouched pages cost
// nothing), charge the commit's virtual-time cost from the configured
// stable-storage medium, and release the process's retained messages.
// Recovery restores the last committed image, takes the retained messages
// over, and replays logged results and retained messages at their event
// positions until both run out, after which execution continues live.
package dc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"failtrans/internal/event"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
	"failtrans/internal/vista"
)

// registerFileSize is the pseudo register-file blob saved with each commit.
const registerFileSize = 64

// Stats aggregates what DC did during a run.
type Stats struct {
	// Checkpoints counts commits per process.
	Checkpoints []int
	// CommitBytes is the total dirty payload written by commits.
	CommitBytes int64
	// CommitTime is the virtual time spent committing.
	CommitTime time.Duration
	// LogRecords / LogBytes / LogTime account the ND log writes.
	LogRecords int64
	LogBytes   int64
	LogTime    time.Duration
	// Recoveries counts rollbacks performed.
	Recoveries int
	// TwoPhaseRounds counts coordinated-commit rounds.
	TwoPhaseRounds int
	// VetoConsults counts CommitVeto policy consultations; CommitsVetoed
	// the commits the policy deferred. VetoedSaveWork counts deferred
	// commits at Save-work decision points (commit-before-visible and
	// coordinated visible commits) — each one is output made visible
	// without a covering commit, the Save-work cost the veto induces.
	VetoConsults   int
	CommitsVetoed  int
	VetoedSaveWork int
	// Divergences counts constrained re-executions that left their ND
	// log or retained messages: the unreplayed rest was discarded or
	// requeued and the run went on live. Under a policy that logs every ND
	// event a replay has no reason to, so any divergence there is a bug.
	Divergences int
}

// TotalCheckpoints sums commits across processes.
func (s *Stats) TotalCheckpoints() int {
	n := 0
	for _, c := range s.Checkpoints {
		n += c
	}
	return n
}

// Segment sizes of the ND log: a process's first segment holds logSegMin
// bytes, and each later one doubles, up to logSegMax. A record larger than
// that gets a segment of its own.
const (
	logSegMin = 64
	logSegMax = 4 << 10
)

// ndLog is one process's ND log in wire form: a stream of records
//
//	uvarint(pos) uvarint(len(label)) label uvarint(len(val)) val
//
// where pos is the event's position relative to the process's last commit
// (its receive sequence number). Replay supplies a record only when the
// re-execution reaches the same position, preserving the original
// interleaving of consumption with computation.
//
// Records are appended into a spine of byte segments, and written bytes
// never move: a record goes into the last segment when it fits and into a
// new one otherwise, so neither growth nor a fork copies a record. A place
// in the stream is a packed (segment, offset) position (logPos), ordered as
// an int. A record is read in place, capacity-clamped (rec), so a value is
// copied exactly once, into the log.
type ndLog struct {
	// segs' segments may be shared with frozen fork templates: a fork
	// copies the spine with every inherited segment capacity-clamped, and a
	// truncation clamps the segment it cuts, so appends only ever write a
	// segment this log made. There is no privatizer — every store must
	// justify why it cannot write a template's bytes.
	//failtrans:cowshared none
	segs [][]byte
}

// logPos packs a log position: the segment index in the high 32 bits, the
// byte offset in it in the low 32. splitPos unpacks it.
func logPos(seg, off int) int { return seg<<32 | off }

func splitPos(at int) (seg, off int) { return at >> 32, int(uint32(at)) }

// end is the position just past the log's last record.
func (l *ndLog) end() int {
	n := len(l.segs)
	if n == 0 {
		return 0
	}
	return logPos(n-1, len(l.segs[n-1]))
}

// append writes one record at the end of the log. It starts a new segment
// when the record does not fit the last one's capacity — always, for a
// segment inherited from a fork template or cut by a truncation, whose
// capacity is clamped to its length.
func (l *ndLog) append(pos int, label string, val []byte) {
	need := uvarintLen(pos) + uvarintLen(len(label)) + len(label) + uvarintLen(len(val)) + len(val)
	n := len(l.segs)
	if n == 0 || cap(l.segs[n-1])-len(l.segs[n-1]) < need {
		size := logSegMin
		if n > 0 {
			size = min(max(2*cap(l.segs[n-1]), logSegMin), logSegMax)
		}
		//failtrans:alloc one segment per logSegMax bytes logged, fewer while the log is young; written bytes never move
		fresh := make([]byte, 0, max(size, need))
		//failtrans:cowok the spine is the log's own (a fork copies it), so adding a segment writes no template's backing
		l.segs = append(l.segs, fresh)
		n++
	}
	seg := l.segs[n-1]
	seg = binary.AppendUvarint(seg, uint64(pos))
	seg = binary.AppendUvarint(seg, uint64(len(label)))
	seg = append(seg, label...)
	seg = binary.AppendUvarint(seg, uint64(len(val)))
	seg = append(seg, val...)
	//failtrans:cowok the record fit in the last segment's spare capacity, which only a segment this log made has: inherited and cut segments are capacity-clamped
	l.segs[n-1] = seg
}

// size is the log's length in bytes, over all its segments.
func (l *ndLog) size() int {
	n := 0
	for _, seg := range l.segs {
		n += len(seg)
	}
	return n
}

// offset converts a position in the log (logPos) to a byte offset into its
// record stream: the same record has the same offset however the stream is
// cut into segments.
func (l *ndLog) offset(at int) int {
	s, off := splitPos(at)
	for i := 0; i < s && i < len(l.segs); i++ {
		off += len(l.segs[i])
	}
	return off
}

// rec decodes the record at position at (< end): its event position, its
// label and value — capacity-clamped views of the log, so an append to one
// cannot reach the next record — and the position just past it.
func (l *ndLog) rec(at int) (pos int, label, val []byte, next int) {
	s, off := splitPos(at)
	seg := l.segs[s]
	if off == len(seg) {
		s, off = s+1, 0
		seg = l.segs[s]
	}
	u, k := binary.Uvarint(seg[off:])
	pos, off = int(u), off+k
	u, k = binary.Uvarint(seg[off:])
	off += k
	label, off = seg[off:off+int(u):off+int(u)], off+int(u)
	u, k = binary.Uvarint(seg[off:])
	off += k
	val, off = seg[off:off+int(u):off+int(u)], off+int(u)
	return pos, label, val, logPos(s, off)
}

// truncate drops every record at or after position at (< end), clamping the
// capacity of the segment it cuts so the next append starts a new segment:
// the bytes past the cut may be a fork template's records, which its other
// forks still read.
func (l *ndLog) truncate(at int) {
	s, off := splitPos(at)
	if off == 0 {
		l.segs = l.segs[:s]
		return
	}
	l.segs = l.segs[:s+1]
	//failtrans:cowok writes only the log's own spine; the capacity clamp keeps later appends from reaching the bytes past the cut
	l.segs[s] = l.segs[s][:off:off]
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// proc is Discount Checking's state for one process. A fork copies it by
// value and then replaces the five fields that reference memory — seg, log,
// retained, deps and img (ForkRecovery).
type proc struct {
	// seg holds the process's committed checkpoint; nil until first used.
	seg *vista.Segment
	// log is the process's ND log. watermark (the log's end at the last
	// commit), cursor (the next record to replay) and flushed (the end of
	// the prefix that has reached stable storage — the log's end except
	// under asynchronous logging, where the tail is volatile and is lost
	// in a crash) are positions in it (logPos).
	log       ndLog
	watermark int
	cursor    int
	flushed   int
	// retained holds the receives rollbacks took over from the world
	// (sim.World.TakeRetained) and replay has not handed back yet, At
	// rebased on the last commit like a log record's position. They replay
	// after the log, and a commit keeps them as it keeps unreplayed records.
	retained []sim.Retained
	// deps[q] = q's commit epoch when the process acquired a dependence on
	// q's then-uncommitted non-determinism; stale entries (q committed
	// since) are pruned at coordination time. Nil until the first one. It
	// never names the process itself: its own uncommitted ND is ndSince.
	deps  map[int]int
	epoch int
	// stepsBase anchors relative event positions: the process's Steps
	// counter just after its last commit (or restore point).
	stepsBase int
	// img is the process's reusable checkpoint-image buffer, so a
	// steady-state commit serializes into preallocated memory.
	img []byte
	// pendingCommit defers commit-after-event to the end of the step.
	pendingCommit string
	// ndSince marks non-determinism since the last commit.
	ndSince   bool
	replaying bool
	// replayOpen marks an open "replay" tracer window, so the End pairs
	// with its Begin exactly once.
	replayOpen bool
}

// dep is one entry of a message-dependency snapshot: the sender depended on
// process proc's non-determinism while proc was at commit epoch epoch.
type dep struct{ proc, epoch int }

// depSnap is a message's dependency snapshot, sorted by process, so equal
// dependencies make equal snapshots whatever order they were gathered in.
type depSnap []dep

// depSlabSize is how many snapshot entries one slab block holds.
const depSlabSize = 512

// depScratch is the DC's reused memory for dependency tracking.
type depScratch struct {
	// slab is the block new snapshots are carved from. A snapshot is a
	// capacity-clamped span of it that never moves: a full block is left
	// to the spans in it and a fresh one begins. A fork starts without a
	// block, so its snapshots never land in spare capacity its template's
	// other forks share.
	slab []dep
	// members is dependentSet's result.
	members []*sim.Proc
}

// ensureScratch returns the DC's dependency-tracking scratch, creating it
// on first use.
func (d *DC) ensureScratch() *depScratch {
	if d.scratch == nil {
		//failtrans:alloc once per DC (and per fork that tracks a dependency)
		d.scratch = new(depScratch)
	}
	return d.scratch
}

// DC is one Discount Checking instance governing every process of a world.
type DC struct {
	World  *sim.World
	Policy protocol.Policy
	Medium stablestore.Medium

	// PageSize configures the Vista segments' trap granularity.
	PageSize int

	// procs holds each process's state, by process index.
	procs []proc
	// msgDeps holds each sent message's dependency snapshot, by message
	// id. It stays nil until the first send that carries a dependency; a
	// snapshot is written once and only read afterwards, until
	// sweepMsgDeps drops it. msgDepsSweep is the size at which the next
	// sweep runs.
	msgDeps      map[int64]depSnap
	msgDepsSweep int

	registers []byte

	// CommitHook, if set, is called after every commit (fault studies
	// record commit positions through it).
	CommitHook func(p *sim.Proc, label string)
	// CommitVeto, if set, is consulted before every policy-driven commit
	// (every label except the "initial" checkpoint, which the theory
	// requires unconditionally). Returning true defers the commit: no
	// state changes, no time is charged, and the run proceeds uncommitted
	// until the policy relents at a later decision point. The fault
	// studies wire this to a mined dangerous-path coloring — the commit
	// veto that trades induced Save-work violations (counted in
	// Stats.VetoedSaveWork, never hidden) for Lose-work safety. Every
	// member of a coordinated commit funnels through the check in turn.
	CommitVeto func(p *sim.Proc, label string) bool
	// RecoveryHook, if set, is called after every successful rollback. A
	// rollback never rewinds p.Steps, so the hook sees the crashed process
	// at its crash position.
	RecoveryHook func(p *sim.Proc, reason string)
	// DisableRecovery leaves crashed processes dead. The fault studies set
	// it only to end a crash loop: past a few rollbacks the next crash is
	// final.
	DisableRecovery bool
	// CheckBeforeCommit runs the program's CheckConsistency (when it
	// implements sim.Checker) before every commit, crashing instead of
	// committing corrupt state — the paper's §2.6 mitigation for
	// Lose-work violations.
	CheckBeforeCommit bool
	// EssentialOnly commits only the application's essential state (for
	// Programs implementing sim.PartialState); derived state is
	// recomputed during recovery — the paper's §2.6 "reduce the
	// comprehensiveness of the state saved" mitigation.
	EssentialOnly bool
	// SerialCommit is vestigial: members of a coordinated commit are always
	// diffed in turn. Nothing reads it; benchmark/shims.go still assigns it.
	SerialCommit bool
	// ExpandResourcesOnCrash calls the hook after each rollback — the
	// paper's §2.6 "make some fixed non-deterministic events into
	// transient ones by increasing disk space or other application
	// resource limits after a failure". Wire it to
	// kernel.ExpandResources to let re-execution past a resource-
	// exhaustion crash.
	ExpandResourcesOnCrash func(p *sim.Proc)
	// ChecksFailed counts commits refused by a failed consistency check.
	ChecksFailed int

	Stats Stats

	// scratch is nil until the DC first snapshots a dependency or builds a
	// dependent set, which most forks never do; a fork starts without it.
	scratch *depScratch
}

// New builds a DC for w with the given policy and commit medium and
// attaches it as the world's recovery layer.
func New(w *sim.World, pol protocol.Policy, medium stablestore.Medium) *DC {
	n := len(w.Procs)
	d := &DC{
		World:     w,
		Policy:    pol,
		Medium:    medium,
		PageSize:  vista.DefaultPageSize,
		procs:     make([]proc, n),
		registers: make([]byte, registerFileSize),
		Stats:     Stats{Checkpoints: make([]int, n)},
	}
	w.Recovery = d
	return d
}

// Attach initializes all programs and takes the initial checkpoint of every
// process — the theory's standing assumption that "the initial state of any
// application is always committed". Call it before World.Run.
func (d *DC) Attach() error {
	if err := d.World.Init(); err != nil {
		return err
	}
	for _, p := range d.World.Procs {
		if err := d.commitOne(p, "initial"); err != nil {
			return err
		}
	}
	// The initial commit is part of setup, not of the measured run.
	d.Stats = Stats{Checkpoints: make([]int, len(d.World.Procs))}
	return nil
}

func (d *DC) seg(i int) *vista.Segment {
	ps := &d.procs[i]
	if ps.seg == nil {
		//failtrans:alloc lazy one-time segment construction; every later commit of the process reuses it
		ps.seg = vista.NewSegment(0, d.PageSize)
		if m := d.World.Metrics; m != nil && i < len(m.Procs) {
			ps.seg.Metrics = m.VistaBlock(i)
		}
	}
	return ps.seg
}

// errCheckFailed marks a commit refused by a pre-commit consistency check;
// the process crashes instead of committing corrupt state.
var errCheckFailed = errors.New("dc: pre-commit consistency check failed")

// vetoed consults the CommitVeto policy for one commit decision point and
// keeps the deferred-commit books. The initial checkpoint is exempt: "the
// initial state of any application is always committed".
func (d *DC) vetoed(p *sim.Proc, label string) bool {
	if d.CommitVeto == nil || label == "initial" {
		return false
	}
	d.Stats.VetoConsults++
	if !d.CommitVeto(p, label) {
		return false
	}
	d.Stats.CommitsVetoed++
	if label == "before-visible" || label == "2pc-visible" {
		d.Stats.VetoedSaveWork++
	}
	if m := d.World.Metrics; m != nil {
		m.Procs[p.Index].CommitsVetoed++
	}
	if t := d.World.Tracer; t != nil {
		t.Instant(p.Index, "dc", "commit-vetoed", p.Clock())
	}
	return true
}

// commitOne checkpoints a single process: the consistency/log preamble,
// the page diff+log, and the bookkeeping, in order.
func (d *DC) commitOne(p *sim.Proc, label string) error {
	if d.vetoed(p, label) {
		return nil
	}
	if d.CheckBeforeCommit {
		if c, ok := p.Prog.(sim.Checker); ok {
			d.World.AddTime(p, 20*time.Microsecond)
			if err := c.CheckConsistency(); err != nil {
				d.ChecksFailed++
				p.Ctx().Crash(err.Error())
				return errCheckFailed
			}
		}
	}
	if d.Policy.LogAsync {
		d.flushLog(p)
	}
	st, err := d.diffOne(p)
	if err != nil {
		return err
	}
	d.finishCommit(p, st, label)
	return nil
}

// diffOne serializes p's checkpoint image into its reusable per-process
// buffer and commits it into the Vista segment: SetContents, one
// compare-and-copy pass, then Commit. No event — hence no simulated crash —
// can land inside the call, so the segment keeps no undo record for it. It
// touches only p's own state (program, session counters, segment, buffer);
// all global bookkeeping lives in finishCommit.
//
//failtrans:hotpath
func (d *DC) diffOne(p *sim.Proc) (vista.Stats, error) {
	buf, err := p.AppendCheckpointImage(d.image(p.Index), d.EssentialOnly)
	if err != nil {
		//failtrans:alloc cold error path: a failed serialization aborts the commit, so the formatting never runs in a committing cycle
		return vista.Stats{}, fmt.Errorf("dc: commit %s: %w", p.Prog.Name(), err)
	}
	d.procs[p.Index].img = buf
	seg := d.seg(p.Index)
	seg.SetContents(buf)
	return seg.Commit(d.registers), nil
}

// image returns process i's checkpoint-image buffer, emptied: the one buffer
// a process's image is assembled in (the program appends its state straight
// into it, see sim.StateAppender) and the one place a buffer is sized. A fork
// starts without one; its segment's extent is the size of the image it will
// next marshal or restore, so the buffer is allocated once at that size plus
// an eighth and 256 bytes for the state to grow into, rather than grown by
// doubling.
func (d *DC) image(i int) []byte {
	ps := &d.procs[i]
	if ps.img == nil {
		if n := d.seg(i).Size(); n > 0 {
			//failtrans:alloc one-time per process (per fork): every later commit and rollback reuses the buffer
			ps.img = make([]byte, 0, n+n/8+256)
		}
	}
	return ps.img[:0]
}

// finishCommit applies a commit's bookkeeping: virtual-time charge, stats,
// trace, retention release and replay anchors.
func (d *DC) finishCommit(p *sim.Proc, st vista.Stats, label string) {
	start := p.Clock()
	cost := d.Medium.CommitCost(st.Bytes)
	d.World.AddTime(p, cost)
	d.Stats.Checkpoints[p.Index]++
	d.Stats.CommitBytes += int64(st.Bytes)
	d.Stats.CommitTime += cost
	if m := d.World.Metrics; m != nil {
		pm := &m.Procs[p.Index]
		pm.Commits++
		pm.CommitBytes += int64(st.Bytes)
		pm.CommitPages += int64(st.Pages)
		h := m.Hists(p.Index)
		h.CommitLatency.ObserveDuration(cost)
		h.CommitSize.Observe(int64(st.Bytes))
	}
	if t := d.World.Tracer; t != nil {
		t.SpanArgs(p.Index, "dc", "commit", start, cost, "label", label, "bytes", int64(st.Bytes))
	}
	d.World.RecordCommit(p, label)
	d.World.CommitPoint(p)
	ps := &d.procs[p.Index]
	ps.ndSince = false
	ps.epoch++
	if ps.replaying {
		ps.watermark = ps.cursor
	} else {
		ps.watermark = ps.log.end()
	}
	ps.stepsBase = p.Steps
	if d.CommitHook != nil {
		d.CommitHook(p, label)
	}
}

// commitCoordinated runs a two-phase commit over the given set. The
// triggering process pays the coordination round trips; every member pays
// its own commit, in member order. Members are diffed in turn, not in
// parallel: a member's diff is a few microseconds of compare-and-copy, less
// than starting and joining a goroutine for it costs (DESIGN §4c).
func (d *DC) commitCoordinated(trigger *sim.Proc, members []*sim.Proc, label string) {
	d.Stats.TwoPhaseRounds++
	if m := d.World.Metrics; m != nil {
		m.TwoPhaseRounds++
	}
	start := trigger.Clock()
	rounds := 2 * d.World.Latency
	d.World.AddTime(trigger, rounds) // prepare + commit rounds
	tr := d.World.Tracer
	if tr != nil {
		tr.SpanArgs(trigger.Index, "dc", "2pc", start, rounds, "label", label, "members", int64(len(members)))
	}
	for _, q := range members {
		// The coordinator→member flow arrow is anchored in the trigger's
		// 2pc span and ends at the member's commit.
		var fid int64
		if tr != nil && q != trigger {
			fid = tr.NewFlowID()
			tr.FlowStart(trigger.Index, "dc", "2pc", fid, start)
		}
		qs := q.Clock()
		err := d.commitOne(q, label)
		if err != nil && !errors.Is(err, errCheckFailed) {
			// A process whose state cannot be serialized cannot
			// be made recoverable; surface loudly.
			panic(err)
		}
		if q != trigger {
			d.World.Delay(q, d.Medium.CommitCost(0))
		}
		if fid != 0 {
			tr.FlowEnd(q.Index, "dc", "2pc", fid, qs)
		}
	}
}

// dependentSet returns the processes whose uncommitted non-determinism p
// causally depends on (including p itself, first, when it has uncommitted
// ND), pruning satisfied dependencies. The others follow in process-index
// order, so members commit — and trace — in the same order on every run.
// The set is built in the DC's scratch and is valid until the next call.
func (d *DC) dependentSet(p *sim.Proc) []*sim.Proc {
	ps := &d.procs[p.Index]
	sc := d.ensureScratch()
	out := sc.members[:0]
	if ps.ndSince {
		out = append(out, p)
	}
	self := len(out)
	for q, ep := range ps.deps {
		if d.procs[q].epoch > ep {
			delete(ps.deps, q) // q committed since: satisfied
			continue
		}
		if q != p.Index {
			out = append(out, d.World.Procs[q])
		}
	}
	slices.SortFunc(out[self:], func(a, b *sim.Proc) int { return a.Index - b.Index })
	sc.members = out
	return out
}

// msgDepsSweepMin is the smallest map size that triggers a sweep.
const msgDepsSweepMin = 64

// sweepMsgDeps drops every message-dependency snapshot that no receive can
// apply again: each of its entries names an epoch its process has committed
// past, and epochs only grow. It runs once the map has doubled since the
// last sweep, so it costs amortized O(1) per snapshot written. Forks share
// the snapshots, so it deletes whole entries and never edits one.
func (d *DC) sweepMsgDeps() {
	for id, snap := range d.msgDeps {
		live := false
		for _, e := range snap {
			if d.procs[e.proc].epoch == e.epoch {
				live = true
				break
			}
		}
		if !live {
			delete(d.msgDeps, id)
		}
	}
	d.msgDepsSweep = max(2*len(d.msgDeps), msgDepsSweepMin)
}

// flushLog forces the volatile log tail to stable storage as one
// sequential write.
func (d *DC) flushLog(p *sim.Proc) {
	ps := &d.procs[p.Index]
	l := &ps.log
	end := l.end()
	if ps.flushed >= end {
		return
	}
	bytes := 0
	for at := ps.flushed; at < end; {
		var val []byte
		_, _, val, at = l.rec(at)
		bytes += len(val)
	}
	start := p.Clock()
	cost := d.Medium.LogCost(bytes)
	d.World.AddTime(p, cost)
	d.Stats.LogTime += cost
	d.noteLogForce(p, start, cost, bytes)
}

// noteLogForce records one synchronous log force (a flush of buffered
// records or a single-record sync write), after which p's whole log is
// stable — and so, under a policy that logs receives, is every message p
// consumed: the world's retention buffer is released. It accounts the force
// in the metrics and the trace.
func (d *DC) noteLogForce(p *sim.Proc, start time.Duration, cost time.Duration, bytes int) {
	ps := &d.procs[p.Index]
	ps.flushed = ps.log.end()
	if d.Policy.LogsLabel("recv") {
		d.World.CommitPoint(p)
	}
	if m := d.World.Metrics; m != nil {
		pm := &m.Procs[p.Index]
		pm.LogForces++
		//failtrans:alloc the registry allocates every process's histogram block once, on its first observation
		m.Hists(p.Index).LogForceLatency.ObserveDuration(cost)
	}
	if t := d.World.Tracer; t != nil {
		t.SpanArgs(p.Index, "dc", "log-force", start, cost, "", "", "bytes", int64(bytes))
	}
}

// BeforeEvent implements sim.Recovery: the commit-prior-to family.
func (d *DC) BeforeEvent(p *sim.Proc, kind event.Kind, nd event.NDClass, label string) {
	pol := d.Policy
	// Asynchronous logging must force its buffered records before any
	// event whose effects can escape the process: a visible event (the
	// Save-work flush of Optimistic Logging/Manetho) or a send (so no
	// receiver depends on a log record that a crash could lose — our
	// recovery performs no cascading rollbacks).
	if pol.LogAsync && (kind == event.Visible || kind == event.Send) {
		d.flushLog(p)
	}
	switch kind {
	case event.Visible:
		switch pol.TwoPhase {
		case protocol.AllProcesses:
			if pol.OnlyIfNDSinceCommit && !d.anyND() {
				return
			}
			d.commitCoordinated(p, d.World.Procs, "2pc-visible")
		case protocol.DependentProcesses:
			set := d.dependentSet(p)
			if len(set) == 0 {
				return
			}
			d.commitCoordinated(p, set, "2pc-visible")
		default:
			if pol.CommitBeforeVisible && (!pol.OnlyIfNDSinceCommit || d.procs[p.Index].ndSince) {
				d.mustCommit(p, "before-visible")
			}
		}
	case event.Send:
		if !pol.Coordinated() && pol.CommitBeforeSend &&
			(!pol.OnlyIfNDSinceCommit || d.procs[p.Index].ndSince) {
			d.mustCommit(p, "before-send")
		}
	}
}

func (d *DC) anyND() bool {
	for i := range d.procs {
		if d.procs[i].ndSince {
			return true
		}
	}
	return false
}

func (d *DC) mustCommit(p *sim.Proc, label string) {
	err := d.commitOne(p, label)
	if err == nil || errors.Is(err, errCheckFailed) {
		return // a refused commit crashes the process; recovery follows
	}
	panic(err)
}

// snapshot carves p's uncommitted-ND dependency snapshot out of the slab:
// every dependency whose process has not committed since, and p itself when
// it has uncommitted ND, sorted by process. It is nil when there are none,
// as for most sends.
func (d *DC) snapshot(p *sim.Proc) depSnap {
	ps := &d.procs[p.Index]
	n := 0
	if ps.ndSince {
		n++
	}
	for q, ep := range ps.deps {
		if d.procs[q].epoch == ep {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	sc := d.ensureScratch()
	if cap(sc.slab)-len(sc.slab) < n {
		//failtrans:alloc amortized slab growth: one block per depSlabSize snapshot entries
		sc.slab = make([]dep, 0, max(depSlabSize, n))
	}
	start := len(sc.slab)
	slab := sc.slab
	if ps.ndSince {
		slab = append(slab, dep{p.Index, ps.epoch})
	}
	for q, ep := range ps.deps {
		if d.procs[q].epoch == ep {
			slab = append(slab, dep{q, ep})
		}
	}
	sc.slab = slab
	snap := depSnap(slab[start:len(slab):len(slab)])
	slices.SortFunc(snap, func(a, b dep) int { return a.proc - b.proc })
	return snap
}

// AfterEvent implements sim.Recovery: dependency tracking and the
// commit-after family. A send's dependency snapshot is carved from the slab
// and a receive reads one in place, so the failure-free path allocates only
// for slab blocks, the growth of msgDeps (bounded by its sweep) and a
// process's first dependency.
//
//failtrans:hotpath
func (d *DC) AfterEvent(p *sim.Proc, ev event.Event) {
	ps := &d.procs[p.Index]
	if ps.replaying {
		if m := d.World.Metrics; m != nil {
			m.Procs[p.Index].ReplayedEvents++
		}
	}
	switch ev.Kind {
	case event.Send:
		// Piggyback p's uncommitted-ND dependency snapshot on the
		// message (out of band; a real system stamps the packet).
		if snap := d.snapshot(p); snap != nil {
			if d.msgDeps == nil {
				//failtrans:alloc once per DC (and per fork): the first send that carries a dependency
				d.msgDeps = make(map[int64]depSnap)
			}
			d.msgDeps[ev.Msg] = snap
			if len(d.msgDeps) >= d.msgDepsSweep {
				d.sweepMsgDeps()
			}
		}
	case event.Receive:
		for _, e := range d.msgDeps[ev.Msg] {
			if d.procs[e.proc].epoch == e.epoch && e.proc != p.Index {
				if ps.deps == nil {
					//failtrans:alloc once per process (and per fork): its first dependency
					ps.deps = make(map[int]int)
				}
				ps.deps[e.proc] = e.epoch
			}
		}
	}
	if ev.EffectivelyND() {
		ps.ndSince = true
	}
	// Replay missed its due record: the re-execution ran past the
	// position where the original consumed a logged event.
	if ps.replaying && ps.cursor < ps.log.end() {
		if pos, _, _, _ := ps.log.rec(ps.cursor); p.Steps-ps.stepsBase > pos {
			//failtrans:alloc recovery only: a diverged re-execution requeues its unreplayed receives
			d.diverge(p)
		}
	}
	// Commits triggered by an event that already executed are deferred
	// to the end of the step so the checkpoint image includes the state
	// the program derives from the event's result (in real DC the value
	// is in the committed address space; here it reaches state only when
	// the step's code runs).
	if d.Policy.CommitEveryEvent {
		ps.pendingCommit = "every-event"
		return
	}
	if d.Policy.CommitAfterND && ev.EffectivelyND() {
		ps.pendingCommit = "after-nd"
	}
}

// EndStep implements sim.Recovery: execute a deferred commit-after.
func (d *DC) EndStep(p *sim.Proc) {
	if ps := &d.procs[p.Index]; ps.pendingCommit != "" {
		label := ps.pendingCommit
		ps.pendingCommit = ""
		d.mustCommit(p, label)
	}
}

// SupplyND implements sim.Recovery: constrained re-execution from the ND
// log, then from the taken-over receives. Each entry is due at the event
// position (relative to the last commit) where the original run consumed
// it; earlier requests execute live, which reproduces the original
// interleaving of consumption with computation. A due record is supplied; a
// due receive is handed back (sim.World.Redeliver) and the receive runs
// live. A poll the source covers is the exception: the log holds every poll
// of a kind the policy logs that found something, and the taken-over list
// every receive, so a poll neither supplies here found nothing in the
// original run, and SupplyND answers empty rather than letting it read state
// that changed while the process was down. Any other mismatch at or past
// the due position means the re-execution diverged at an unlogged transient
// event.
func (d *DC) SupplyND(p *sim.Proc, label string) ([]byte, bool) {
	ps := &d.procs[p.Index]
	rel := p.Steps - ps.stepsBase
	if ps.replaying {
		if end := ps.log.end(); ps.cursor < end {
			pos, recLabel, val, next := ps.log.rec(ps.cursor)
			if rel == pos && string(recLabel) == label {
				ps.cursor = next
				if next >= end {
					d.endReplay(p)
				}
				return val, true
			}
			if rel <= pos && (label == "recv" || label == "signal") && d.Policy.LogsLabel(label) {
				return nil, true // the original poll found nothing
			}
			if rel < pos {
				return nil, false // not due yet: execute live
			}
			d.diverge(p)
			return nil, false
		}
		d.endReplay(p)
	}
	if label != "recv" || len(ps.retained) == 0 {
		return nil, false
	}
	r := ps.retained[0]
	switch {
	case rel == r.At:
		ps.retained[0] = sim.Retained{} // the slot leaves the slice: drop its pointer
		ps.retained = ps.retained[1:]
		d.World.Redeliver(p, r.Msg)
		return nil, false
	case rel < r.At:
		return nil, true // the original poll found nothing
	}
	d.diverge(p)
	return nil, false
}

// diverge abandons constrained re-execution: the log's unreplayed tail is
// truncated, and its receives, then the taken-over ones, go to the inbox as
// live messages (sim.World.Requeue), so none is lost. A flushed position
// past the cut moves back to it: records logged from here on are volatile.
func (d *DC) diverge(p *sim.Proc) {
	d.Stats.Divergences++
	ps := &d.procs[p.Index]
	var ms []sim.Msg
	if ps.replaying {
		l := &ps.log
		for at, end := ps.cursor, l.end(); at < end; {
			var label, val []byte
			_, label, val, at = l.rec(at)
			if string(label) == "recv" {
				ms = append(ms, sim.DecodeMsgRecord(val))
			}
		}
		l.truncate(ps.cursor)
		ps.flushed = min(ps.flushed, ps.cursor)
		d.endReplay(p)
	}
	for _, r := range ps.retained {
		ms = append(ms, *r.Msg)
	}
	ps.retained = nil
	d.World.Requeue(p, ms)
}

// OnBlocked implements sim.Recovery: when a re-executing process blocks on
// messages, either its next logged or taken-over receive is due now (wake it
// so SupplyND can deliver) or the re-execution diverged.
func (d *DC) OnBlocked(p *sim.Proc) bool {
	ps := &d.procs[p.Index]
	var pos int
	switch {
	case ps.replaying && ps.cursor < ps.log.end():
		var label []byte
		pos, label, _, _ = ps.log.rec(ps.cursor)
		if string(label) != "recv" {
			d.diverge(p) // the due record is not a receive while the process wants one
			return false
		}
	case len(ps.retained) > 0:
		pos = ps.retained[0].At
	default:
		return false
	}
	if p.Steps-ps.stepsBase >= pos {
		return true
	}
	d.diverge(p) // blocked before the due position
	return false
}

// RecordND implements sim.Recovery: log the ND value if the policy asks,
// charging the synchronous log-force cost. The log writes val's bytes into
// its record stream; val itself is the caller's scratch.
//
//failtrans:hotpath
func (d *DC) RecordND(p *sim.Proc, label string, val []byte) bool {
	if !d.Policy.LogsLabel(label) {
		return false
	}
	ps := &d.procs[p.Index]
	ps.log.append(p.Steps-ps.stepsBase, label, val)
	d.Stats.LogRecords++
	d.Stats.LogBytes += int64(len(val))
	if d.Policy.LogAsync {
		// Buffered: the write is a memory copy; the force happens at
		// the next flush point.
		return true
	}
	start := p.Clock()
	cost := d.Medium.LogCost(len(val))
	d.World.AddTime(p, cost)
	d.Stats.LogTime += cost
	d.noteLogForce(p, start, cost, len(val))
	return true
}

// OnCrash implements sim.Recovery: roll the process back to its last
// committed state and arm constrained re-execution.
func (d *DC) OnCrash(p *sim.Proc, reason string) bool {
	if d.DisableRecovery {
		return false
	}
	if err := d.Rollback(p); err != nil {
		return false
	}
	if d.ExpandResourcesOnCrash != nil {
		d.ExpandResourcesOnCrash(p)
	}
	if d.RecoveryHook != nil {
		d.RecoveryHook(p, reason)
	}
	return true
}

// Checkpoint forces an immediate commit of p outside any protocol rule —
// for applications that want explicit commit points in addition to the
// policy's.
func (d *DC) Checkpoint(p *sim.Proc) error { return d.commitOne(p, "explicit") }

// Rollback restores p to its last committed state: reload the segment
// image, rebuild session and kernel state, take retained messages over.
func (d *DC) Rollback(p *sim.Proc) error {
	i := p.Index
	ps := &d.procs[i]
	// Depth must be read before stepsBase moves to the crash position
	// below (the restore leaves p.Steps where the crash left it).
	depth := int64(p.Steps - ps.stepsBase)
	start := p.Clock()
	d.endReplayWindow(p) // a crash mid-replay abandons the open window
	if err := d.rollbackRestore(p); err != nil {
		return fmt.Errorf("dc: rollback %s: %w", p.Prog.Name(), err)
	}
	// A crash loses the volatile tail of an asynchronous log; the
	// re-execution runs those events live (their messages are still in
	// the retention buffer).
	if ps.flushed < ps.log.end() {
		ps.log.truncate(ps.flushed)
	}
	// The retained messages go ahead of any an earlier rollback took over
	// and replay has not handed back yet.
	if taken := d.World.TakeRetained(p); len(taken) > 0 {
		for i := range taken {
			taken[i].At -= ps.stepsBase
		}
		ps.retained = append(taken, ps.retained...)
	}
	// The cursor is zero unless replaying (endReplay).
	ps.cursor, ps.replaying = 0, ps.watermark < ps.log.end()
	if ps.replaying {
		ps.cursor = ps.watermark
	}
	ps.stepsBase = p.Steps // restore point == last commit position
	ps.ndSince = false
	ps.pendingCommit = "" // a commit deferred by the crashed step is void
	cost := d.Medium.CommitCost(len(ps.img))
	d.World.AddTime(p, cost)
	d.Stats.Recoveries++
	if m := d.World.Metrics; m != nil {
		pm := &m.Procs[i]
		pm.Rollbacks++
		pm.RolledBackEvents += depth
		m.Hists(i).RollbackDepth.Observe(depth)
	}
	if t := d.World.Tracer; t != nil {
		t.SpanArgs(i, "dc", "rollback", start, cost, "", "", "depth", depth)
		if ps.replaying {
			// The constrained re-execution window opens where the restore
			// ends and closes when the log runs dry or replay diverges.
			t.Begin(i, "dc", "replay", start+cost)
			ps.replayOpen = true
		}
	}
	return nil
}

// rollbackRestore is the restore half of a rollback: read the segment's
// committed image into the reusable per-process buffer and rebuild process
// state from it. The segment keeps no undo log to apply, because a commit is
// one call inside an event and a crash lands between events: the segment only
// ever holds a committed image, and a crash inside a commit would recover the
// same state as one just before it. It is the recovery-side counterpart of
// diffOne and, like it, must not allocate in the steady state — the image
// buffer is reused across rollbacks and commits, and the register file is
// read in place rather than copied out.
//
//failtrans:hotpath
func (d *DC) rollbackRestore(p *sim.Proc) error {
	i := p.Index
	img := d.seg(i).Rollback(d.image(i))
	d.procs[i].img = img
	return p.RestoreCheckpointImage(img)
}

// endReplay ends the process's constrained re-execution. The cursor is read
// only while replaying and Rollback sets it afresh, so it goes back to zero,
// the value of a process that never replayed, and SameState can compare it
// field by field.
func (d *DC) endReplay(p *sim.Proc) {
	ps := &d.procs[p.Index]
	ps.replaying = false
	ps.cursor = 0
	d.endReplayWindow(p)
}

// endReplayWindow closes the process's open "replay" tracer window, if any.
// Every site that clears replaying goes through it so Begin/End pair 1:1.
func (d *DC) endReplayWindow(p *sim.Proc) {
	if ps := &d.procs[p.Index]; ps.replayOpen {
		ps.replayOpen = false
		d.World.Tracer.End(p.Index, p.Clock())
	}
}
