package postgres

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestRepliesMatchFormat: every reply is built with strconv.Append* into
// the reply scratch, byte-identical to the fmt formatting it replaced.
func TestRepliesMatchFormat(t *testing.T) {
	ints := []int64{0, 1, -1, 42, -305, 99999, math.MaxInt64, math.MinInt64}
	for _, lo := range ints {
		for _, hi := range ints {
			n := hi & 0xffff
			if got, want := string(appendRangeReply(nil, "count [", lo, hi, n)), fmt.Sprintf("count [%d,%d]: %d", lo, hi, n); got != want {
				t.Errorf("count reply %q, want %q", got, want)
			}
			sum := uint32(lo) ^ uint32(hi)<<7
			got := appendHex8(append(appendRangeReply(nil, "scan [", lo, hi, n), " tuples sum="...), sum)
			if want := fmt.Sprintf("scan [%d,%d]: %d tuples sum=%08x", lo, hi, n, sum); string(got) != want {
				t.Errorf("scan reply %q, want %q", got, want)
			}
		}
		for _, op := range []string{"select", "update"} {
			if got, want := string(append(appendKeyed(nil, op, lo), "not found"...)), fmt.Sprintf("%s %d: not found", op, lo); got != want {
				t.Errorf("%s reply %q, want %q", op, got, want)
			}
		}
		v := []byte("value with spaces")
		if got, want := string(append(appendKeyed(nil, "select", lo), v...)), fmt.Sprintf("select %d: %s", lo, v); got != want {
			t.Errorf("select reply %q, want %q", got, want)
		}
	}
	for _, sum := range []uint32{0, 1, 0xf, 0xabc, 0x80000000, math.MaxUint32} {
		if got, want := string(appendHex8(nil, sum)), fmt.Sprintf("%08x", sum); got != want {
			t.Errorf("appendHex8(%#x) = %q, want %q", sum, got, want)
		}
	}
	// End to end, through the render: vacuum's and an unknown command's
	// replies, which have no builder of their own.
	w, _ := runDB(t, "insert 1 a", "insert 2 b", "delete 1", "vacuum", "frobnicate 3", "quit")
	if got, want := strings.Join(w.Outputs[0], "|"), "vacuum: reclaimed 1 dead slots|?cmd frobnicate"; got != want {
		t.Errorf("outputs %q, want %q", got, want)
	}
}

// TestForkRepliesStayApart: a frozen database's command and reply live in
// buffers of its own after a restore; of two forks, one answers a
// different query and the other restores a different image straight away,
// and neither the template's Cmd and LastMsg nor the sibling's change. A
// fork that kept its template's reply or restore buffer would overwrite
// them in place: both have room for the shorter text.
func TestForkRepliesStayApart(t *testing.T) {
	suffix := []string{"select 148", "select 10", "quit"}
	w, db := newForkWorld(t, suffix)
	ops := len(forkPrefix()) + 1
	stepToOps(t, w, db, ops)
	if err := db.UnmarshalState([]byte(image(t, db))); err != nil {
		t.Fatal(err)
	}
	tmplCmd, tmplMsg := string(db.Cmd), string(db.LastMsg)
	if tmplCmd != "select 148" || !strings.HasPrefix(tmplMsg, "select 148: ppp") {
		t.Fatalf("template Cmd %q, LastMsg %q", tmplCmd, tmplMsg)
	}
	fa, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	a, b := fa.Procs[0].Prog.(*DB), fb.Procs[0].Prog.(*DB)
	stepToOps(t, fa, a, ops+1)
	aCmd, aMsg := string(a.Cmd), string(a.LastMsg)
	if aCmd != "select 10" || !strings.HasPrefix(aMsg, "select 10: ppp") {
		t.Fatalf("fork Cmd %q, LastMsg %q", aCmd, aMsg)
	}
	if err := b.UnmarshalState([]byte(image(t, a))); err != nil {
		t.Fatal(err)
	}
	if string(b.Cmd) != aCmd || string(b.LastMsg) != aMsg {
		t.Errorf("restored fork Cmd %q, LastMsg %q, want %q, %q", b.Cmd, b.LastMsg, aCmd, aMsg)
	}
	for _, x := range []struct {
		name     string
		db       *DB
		cmd, msg string
	}{{"template", db, tmplCmd, tmplMsg}, {"first fork", a, aCmd, aMsg}} {
		if string(x.db.Cmd) != x.cmd || string(x.db.LastMsg) != x.msg {
			t.Errorf("%s: Cmd %q, LastMsg %q changed under its sibling, want %q, %q",
				x.name, x.db.Cmd, x.db.LastMsg, x.cmd, x.msg)
		}
	}
}
