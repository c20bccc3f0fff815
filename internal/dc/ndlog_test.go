package dc

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// inputValue is the k-th 13-byte input value of a log tagged tag.
func inputValue(tag byte, k int) []byte {
	return fmt.Appendf(nil, "%c-input-%05d", tag, k)
}

// newLogWorld returns a one-process world under CBNDVS-LOG, which logs every
// input, with the initial checkpoint taken.
func newLogWorld(t *testing.T) (*sim.World, *DC) {
	t.Helper()
	w := sim.NewWorld(1, &idleProg{})
	w.RecordTrace = false
	d := New(w, protocol.CBNDVSLog, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	return w, d
}

// logInputs logs inputs [from, to) of the log tagged tag for process 0.
func logInputs(t *testing.T, d *DC, tag byte, from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		if !d.RecordND(d.World.Procs[0], "input", inputValue(tag, k)) {
			t.Fatal("CBNDVS-LOG did not log an input")
		}
	}
}

// logged decodes process 0's whole log into its values.
func logged(d *DC) []string {
	var out []string
	l := &d.procs[0].log
	for at, end := 0, l.end(); at < end; {
		var val []byte
		_, _, val, at = l.rec(at)
		out = append(out, string(val))
	}
	return out
}

// values lists the values of inputs [from, to) tagged tag after prefix.
func values(prefix []string, tag byte, from, to int) []string {
	out := slices.Clone(prefix)
	for k := from; k < to; k++ {
		out = append(out, string(inputValue(tag, k)))
	}
	return out
}

// bytesAllocated returns what f allocates on the heap, in bytes.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// divergeAt rolls fork f's process back and replays its first n records;
// the next request, for a label the log does not hold there, diverges and
// truncates the log at that cursor.
func divergeAt(t *testing.T, f *DC, n int) {
	t.Helper()
	p := f.World.Procs[0]
	if err := f.Rollback(p); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if _, ok := f.SupplyND(p, "input"); !ok {
			t.Fatalf("replay stopped at record %d, want %d", k, n)
		}
	}
	if _, ok := f.SupplyND(p, "rand"); ok || f.procs[0].replaying {
		t.Fatal("a rand request against a logged input did not diverge")
	}
}

// forkFirstRecordMaxBytes bounds what a fork's first record allocates on a
// 10⁴-record log. Measured on linux/amd64: 2 704 B, one fresh segment twice
// the length of the template's last; a log of record headers copied its
// whole inherited array, 614 416 B.
const forkFirstRecordMaxBytes = 16 << 10

// TestForkedLogAppendsWithoutCopy: a fork shares its template's log and
// copies none of it to append. Two forks diverge from the same 10⁴-record
// log at different cursors and append different records; the template and
// each sibling still hold exactly their own records.
func TestForkedLogAppendsWithoutCopy(t *testing.T) {
	const n = 10_000
	w, d := newLogWorld(t)
	logInputs(t, d, 't', 0, n)
	d.Freeze()
	fork := func() *DC {
		fw, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		return fw.Recovery.(*DC)
	}
	a, b := fork(), fork()
	template := values(nil, 't', 0, n)

	// Each fork's first record goes at the end of the shared log: it must
	// neither copy the log nor land where the sibling's first record does.
	for _, f := range []struct {
		d   *DC
		tag byte
	}{{a, 'a'}, {b, 'b'}} {
		p := f.d.World.Procs[0]
		got := bytesAllocated(func() { f.d.RecordND(p, "input", inputValue(f.tag, 0)) })
		if got > forkFirstRecordMaxBytes {
			t.Errorf("fork %c: first record allocates %d B, want at most %d (no copy of the inherited log)", f.tag, got, forkFirstRecordMaxBytes)
		}
	}
	for _, f := range []struct {
		d   *DC
		tag byte
	}{{a, 'a'}, {b, 'b'}} {
		if got, want := logged(f.d), values(template, f.tag, 0, 1); !slices.Equal(got, want) {
			t.Fatalf("fork %c: log holds %d records, want %d (the inherited ones plus its own); first difference at %d",
				f.tag, len(got), len(want), firstDiff(got, want))
		}
	}

	divergeAt(t, a, 3_000)
	logInputs(t, a, 'a', 1, 101)
	divergeAt(t, b, 7_000)
	logInputs(t, b, 'b', 1, 101)

	for _, c := range []struct {
		name string
		d    *DC
		want []string
	}{
		{"template", d, template},
		{"fork a", a, values(template[:3_000], 'a', 1, 101)},
		{"fork b", b, values(template[:7_000], 'b', 1, 101)},
	} {
		if got := logged(c.d); !slices.Equal(got, c.want) {
			t.Errorf("%s: log holds %d records, want %d; first difference at %d", c.name, len(got), len(c.want), firstDiff(got, c.want))
		}
	}

	// The forks replay what they logged, through the recovery interface.
	for _, c := range []struct {
		name string
		f    *DC
		want []string
	}{
		{"fork a", a, values(template[:3_000], 'a', 1, 101)},
		{"fork b", b, values(template[:7_000], 'b', 1, 101)},
	} {
		p := c.f.World.Procs[0]
		if err := c.f.Rollback(p); err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			v, ok := c.f.SupplyND(p, "input")
			if !ok {
				break
			}
			got = append(got, string(v))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: replayed %d records, want %d; first difference at %d", c.name, len(got), len(c.want), firstDiff(got, c.want))
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestReplayedValueIsClamped: a replayed value is a view of the log, and in
// the wire form the next record's header follows it directly, so the view
// is capacity-clamped: appending to it (Ctx.Input hands it to the program)
// reallocates and leaves the log as it was.
func TestReplayedValueIsClamped(t *testing.T) {
	_, d := newLogWorld(t)
	logInputs(t, d, 'c', 0, 2)
	p := d.World.Procs[0]
	for range 2 {
		if err := d.Rollback(p); err != nil {
			t.Fatal(err)
		}
		v, ok := d.SupplyND(p, "input")
		if !ok || string(v) != string(inputValue('c', 0)) {
			t.Fatalf("replayed %q, %v; want the first record", v, ok)
		}
		if cap(v) != len(v) {
			t.Errorf("replayed value has cap %d, len %d; want a clamped view", cap(v), len(v))
		}
		_ = append(v, "CLOBBER"...)
		if v, ok := d.SupplyND(p, "input"); !ok || string(v) != string(inputValue('c', 1)) {
			t.Fatalf("after an append to the first value, the second replays as %q, %v", v, ok)
		}
	}
}

// logBytesPerRecordCeiling bounds the heap a logged 13-byte input costs.
// Measured on linux/amd64: 21.6 B per record (a 21-byte wire record plus
// its share of segment slack and spine); a 48-byte header per record, a
// heap copy per value and a doubling header array read 248.6 B.
const logBytesPerRecordCeiling = 32

// TestLogBytesPerRecord: the ND log costs what it logs.
func TestLogBytesPerRecord(t *testing.T) {
	const n = 10_000
	_, d := newLogWorld(t)
	vals := make([][]byte, n)
	for k := range vals {
		vals[k] = inputValue('s', k)
	}
	p := d.World.Procs[0]
	got := bytesAllocated(func() {
		for _, v := range vals {
			d.RecordND(p, "input", v)
		}
	})
	perRec := float64(got) / n
	t.Logf("%.1f B per record", perRec)
	if perRec > logBytesPerRecordCeiling {
		t.Errorf("logging %d 13-byte inputs allocates %.1f B per record, want at most %d", n, perRec, logBytesPerRecordCeiling)
	}
}

// TestDivergedAsyncTailIsVolatile: under asynchronous logging, the records
// logged after a divergence cut into the flushed prefix are the volatile
// tail. A crash before the next flush loses them, and the flush forces them
// and only them. A flushed mark left past the cut would point into bytes the
// log no longer holds: the flush would read past the log's end, and the
// crash it caused would repeat on every re-execution.
func TestDivergedAsyncTailIsVolatile(t *testing.T) {
	w := sim.NewWorld(1, &idleProg{})
	w.RecordTrace = false
	d := New(w, protocol.OptimisticLogging, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	for k := range 3 {
		d.RecordND(p, "rand", inputValue('f', k))
	}
	d.flushLog(p)
	if err := d.Rollback(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.SupplyND(p, "input"); ok || d.procs[0].replaying {
		t.Fatal("an input request against a logged rand did not diverge")
	}
	tail := inputValue('v', 0)
	replayed := func() []string {
		t.Helper()
		if err := d.Rollback(p); err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			v, ok := d.SupplyND(p, "rand")
			if !ok {
				return got
			}
			got = append(got, string(v))
		}
	}

	d.RecordND(p, "rand", tail)
	if got := replayed(); len(got) != 0 {
		t.Errorf("a crash before the flush replays %q; the tail was volatile", got)
	}

	d.RecordND(p, "rand", tail)
	before := d.Stats.LogTime
	d.flushLog(p)
	if want := d.Medium.LogCost(len(tail)); d.Stats.LogTime-before != want {
		t.Errorf("the flush charged %v, want %v for the one record past the cut", d.Stats.LogTime-before, want)
	}
	if got := replayed(); !slices.Equal(got, []string{string(tail)}) {
		t.Errorf("after the flush a crash replays %q, want the flushed tail", got)
	}
}

// TestSupplyNDAnswersEmptyPolls: under a policy that logs a poll's label,
// the log holds every poll that found something, so a poll it does not
// supply found nothing in the original run. SupplyND answers such a poll
// empty, (nil, true), both before the next record is due and at its
// position, and does not diverge; a request of another kind at the due
// position still diverges, and so does a poll whose label the policy does
// not log.
func TestSupplyNDAnswersEmptyPolls(t *testing.T) {
	// Positions count events since the restore point, which a rollback
	// takes at the process's current step count.
	replayAt := func(pol protocol.Policy) (*DC, *sim.Proc, int) {
		t.Helper()
		w := sim.NewWorld(1, &idleProg{})
		w.RecordTrace = false
		d := New(w, pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		p := w.Procs[0]
		p.Steps += 2 // the rand is the third event after the initial commit
		if !d.RecordND(p, "rand", inputValue('r', 0)) && pol.LogAll {
			t.Fatal("a log-everything policy did not log a rand")
		}
		d.RecordND(p, "input", inputValue('i', 0))
		if err := d.Rollback(p); err != nil {
			t.Fatal(err)
		}
		return d, p, p.Steps
	}

	d, p, base := replayAt(protocol.Hypervisor)
	for _, steps := range []int{0, 2} { // before the rand is due, then at it
		p.Steps = base + steps
		for _, label := range []string{"recv", "signal"} {
			if v, ok := d.SupplyND(p, label); !ok || v != nil {
				t.Errorf("HYPERVISOR %s poll at event %d: (%q, %v), want (nil, true)", label, steps, v, ok)
			}
		}
	}
	if v, ok := d.SupplyND(p, "rand"); !ok || string(v) != string(inputValue('r', 0)) {
		t.Errorf("the due rand after the empty polls: (%q, %v)", v, ok)
	}
	if d.Stats.Divergences != 0 {
		t.Errorf("empty polls diverged the replay %d times", d.Stats.Divergences)
	}
	if _, ok := d.SupplyND(p, "gettimeofday"); ok || d.procs[0].replaying || d.Stats.Divergences != 1 {
		t.Errorf("a clock read against a due input: ok=%v replaying=%v divergences=%d, want a divergence",
			ok, d.procs[0].replaying, d.Stats.Divergences)
	}

	// CBNDVS-LOG logs inputs and receives, not signals.
	d, p, base = replayAt(protocol.CBNDVSLog)
	if v, ok := d.SupplyND(p, "recv"); !ok || v != nil {
		t.Errorf("CBNDVS-LOG receive poll before the due input: (%q, %v), want (nil, true)", v, ok)
	}
	if _, ok := d.SupplyND(p, "signal"); ok || d.Stats.Divergences != 0 {
		t.Errorf("CBNDVS-LOG signal poll before the due input: ok=%v divergences=%d, want a live poll",
			ok, d.Stats.Divergences)
	}
	p.Steps = base + 2
	if _, ok := d.SupplyND(p, "signal"); ok || d.Stats.Divergences != 1 {
		t.Errorf("CBNDVS-LOG signal poll at the due input: ok=%v divergences=%d, want a divergence",
			ok, d.Stats.Divergences)
	}
}

// TestRetainedReceiveGate: a rollback takes the messages consumed since the
// last commit over from the world's retention buffer, and constrained
// re-execution gates each at the position it was consumed at, as it gates a
// log record. Before that position a receive finds nothing and any other
// event runs live; a process that blocks there has diverged, and the message
// becomes deliverable now. A process that blocks at the position is woken to
// take it, and the receive there consumes it as a live one: it is retained
// again, so a second rollback before the next commit redelivers it once
// more, and its slot in DC's list pins nothing.
func TestRetainedReceiveGate(t *testing.T) {
	// The responder's second query: consumed one event after the commit
	// before its first reply was sent, and not yet answered.
	rolledBack := func(t *testing.T) (*DC, *sim.Proc, *sim.Msg) {
		t.Helper()
		w := sim.NewWorld(3, &requester{Rounds: 3}, &responder{Max: 3})
		w.RecordTrace = false
		d := New(w, protocol.CPVS, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		p := w.Procs[1]
		for r := p.Prog.(*responder); r.Seen < 2 || r.Pending < 0; {
			if more, err := w.Step(); err != nil || !more {
				t.Fatalf("world stopped before the second query: more=%v err=%v", more, err)
			}
		}
		if err := d.Rollback(p); err != nil {
			t.Fatal(err)
		}
		ps := &d.procs[1]
		if len(ps.retained) != 1 || ps.retained[0].At != 1 {
			t.Fatalf("rollback took over %+v, want the second query at position 1", ps.retained)
		}
		return d, p, ps.retained[0].Msg
	}

	t.Run("before", func(t *testing.T) {
		d, p, m := rolledBack(t)
		if v, ok := d.SupplyND(p, "recv"); !ok || v != nil {
			t.Errorf("receive before the due position: (%q, %v), want (nil, true)", v, ok)
		}
		if _, ok := d.SupplyND(p, "gettimeofday"); ok || d.Stats.Divergences != 0 {
			t.Errorf("clock read before the due position: ok=%v divergences=%d, want a live read", ok, d.Stats.Divergences)
		}
		if d.OnBlocked(p) || d.Stats.Divergences != 1 || len(d.procs[1].retained) != 0 {
			t.Fatalf("blocked before the due position: divergences=%d, %d receives left, want a divergence",
				d.Stats.Divergences, len(d.procs[1].retained))
		}
		if got, ok := p.Ctx().Recv(); !ok || got.ID != m.ID {
			t.Errorf("receive after the divergence = %+v %v, want message %d live", got, ok, m.ID)
		}
	})

	t.Run("due", func(t *testing.T) {
		d, p, m := rolledBack(t)
		p.Steps = d.procs[1].stepsBase + 1
		if !d.OnBlocked(p) {
			t.Fatal("blocked at the due position, the process was not woken to take its receive")
		}
		slot := d.procs[1].retained[:1]
		if got, ok := p.Ctx().Recv(); !ok || got.ID != m.ID || string(got.Payload) != string(m.Payload) {
			t.Fatalf("receive at the due position = %+v %v, want message %d", got, ok, m.ID)
		}
		if slot[0].Msg != nil || len(d.procs[1].retained) != 0 || d.Stats.Divergences != 0 {
			t.Errorf("after the handback: slot holds %v, %d receives left, %d divergences", slot[0].Msg, len(d.procs[1].retained), d.Stats.Divergences)
		}
		if err := d.Rollback(p); err != nil {
			t.Fatal(err)
		}
		if ps := &d.procs[1]; len(ps.retained) != 1 || ps.retained[0].Msg != m || ps.retained[0].At != 1 {
			t.Errorf("a second rollback took over %+v, want message %d at position 1 again", ps.retained, m.ID)
		}
	})
}
