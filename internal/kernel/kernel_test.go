package kernel

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"failtrans/internal/event"
	"failtrans/internal/obs"
)

func call(t *testing.T, k *Kernel, pid int, name string, args ...[]byte) [][]byte {
	t.Helper()
	ret, _, err := k.Call(pid, name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ret
}

func TestOpenReadWrite(t *testing.T) {
	k := New()
	fd := Int(call(t, k, 0, "open", []byte("f"), []byte{1})[0])
	call(t, k, 0, "write", I64(fd), []byte("hello world"))
	call(t, k, 0, "lseek", I64(fd), I64(0))
	got := call(t, k, 0, "read", I64(fd), I64(5))[0]
	if string(got) != "hello" {
		t.Errorf("read = %q", got)
	}
	got = call(t, k, 0, "read", I64(fd), I64(100))[0]
	if string(got) != " world" {
		t.Errorf("read rest = %q", got)
	}
	// EOF returns empty.
	got = call(t, k, 0, "read", I64(fd), I64(10))[0]
	if len(got) != 0 {
		t.Errorf("read at EOF = %q", got)
	}
	call(t, k, 0, "close", I64(fd))
	if _, _, err := k.Call(0, "read", [][]byte{I64(fd), I64(1)}); err == nil {
		t.Error("read on closed fd must fail")
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	k := New()
	if _, _, err := k.Call(0, "open", [][]byte{[]byte("nope")}); err == nil {
		t.Error("open of missing file without create must fail")
	}
}

func TestWriteAtOffsetOverwrites(t *testing.T) {
	k := New()
	k.WriteFile(0, "f", []byte("abcdef"))
	fd := Int(call(t, k, 0, "open", []byte("f"))[0])
	call(t, k, 0, "lseek", I64(fd), I64(2))
	call(t, k, 0, "write", I64(fd), []byte("XY"))
	data, _ := k.ReadFile(0, "f")
	if string(data) != "abXYef" {
		t.Errorf("file = %q", data)
	}
}

func TestUnlinkStatTruncate(t *testing.T) {
	k := New()
	k.WriteFile(0, "f", []byte("12345678"))
	if n := Int(call(t, k, 0, "stat", []byte("f"))[0]); n != 8 {
		t.Errorf("stat = %d", n)
	}
	call(t, k, 0, "truncate", []byte("f"), I64(3))
	if n := Int(call(t, k, 0, "stat", []byte("f"))[0]); n != 3 {
		t.Errorf("stat after truncate = %d", n)
	}
	call(t, k, 0, "unlink", []byte("f"))
	if n := Int(call(t, k, 0, "stat", []byte("f"))[0]); n != -1 {
		t.Errorf("stat after unlink = %d", n)
	}
}

func TestNodesIsolated(t *testing.T) {
	k := New()
	k.WriteFile(0, "f", []byte("node0"))
	if _, ok := k.ReadFile(1, "f"); ok {
		t.Error("node 1 must not see node 0's files")
	}
	if files := k.Files(0); len(files) != 1 || files[0] != "f" {
		t.Errorf("Files(0) = %v", files)
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]event.NDClass{
		"gettimeofday": event.TransientND,
		"select":       event.TransientND,
		"open":         event.FixedND,
		"read":         event.Deterministic,
		"write":        event.Deterministic,
		"close":        event.Deterministic,
	}
	for name, want := range cases {
		if got := Classify(name); got != want {
			t.Errorf("Classify(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestFileTableLimit(t *testing.T) {
	k := New()
	k.WriteFile(0, "f", nil)
	for i := 0; i < MaxOpenFiles; i++ {
		call(t, k, 0, "open", []byte("f"))
	}
	if _, _, err := k.Call(0, "open", [][]byte{[]byte("f")}); err == nil {
		t.Error("open beyond MaxOpenFiles must fail (the paper's fixed-ND resource)")
	}
}

func TestSaveRestoreProcState(t *testing.T) {
	k := New()
	k.WriteFile(0, "a", []byte("aaaa"))
	k.WriteFile(0, "b", []byte("bbbb"))
	fdA := Int(call(t, k, 0, "open", []byte("a"))[0])
	fdB := Int(call(t, k, 0, "open", []byte("b"))[0])
	call(t, k, 0, "lseek", I64(fdA), I64(2))
	blob := k.SaveProcState(0)

	// Scramble: close everything, move offsets.
	call(t, k, 0, "close", I64(fdA))
	call(t, k, 0, "lseek", I64(fdB), I64(4))

	k.RestoreProcState(0, blob)
	// fdA must be back with its offset.
	got := call(t, k, 0, "read", I64(fdA), I64(2))[0]
	if string(got) != "aa" {
		t.Errorf("restored fdA read = %q", got)
	}
	got = call(t, k, 0, "read", I64(fdB), I64(4))[0]
	if string(got) != "bbbb" {
		t.Errorf("restored fdB read = %q (offset should be 0)", got)
	}
}

func TestRestoreEmptyBlob(t *testing.T) {
	k := New()
	k.RestoreProcState(0, nil) // must not panic
	if got := k.SaveProcState(0); Int(got[0:8]) != 0 {
		t.Errorf("fresh node should have empty fd table")
	}
}

func TestFaultCorruptionWindow(t *testing.T) {
	now := time.Duration(0)
	k := New()
	k.Clock = func() time.Duration { return now }
	var corrupted []int
	k.OnCorrupt = func(pid int) { corrupted = append(corrupted, pid) }
	k.Metrics = obs.NewMetrics(1)

	k.WriteFile(0, "f", []byte("AAAAAAAA"))
	fd := Int(call(t, k, 0, "open", []byte("f"))[0])
	k.InjectFault(0, 10*time.Millisecond)

	// Within the window: results are corrupted.
	got := call(t, k, 0, "read", I64(fd), I64(8))[0]
	if bytes.Equal(got, []byte("AAAAAAAA")) {
		t.Error("read inside fault window should be corrupted")
	}
	if len(corrupted) != 1 || corrupted[0] != 0 {
		t.Errorf("OnCorrupt calls = %v", corrupted)
	}
	if !k.FaultCorrupted(0) {
		t.Error("FaultCorrupted must report true")
	}

	// After the window: node panics.
	now = 20 * time.Millisecond
	_, _, err := k.Call(0, "read", [][]byte{I64(fd), I64(1)})
	if !errors.Is(err, ErrNodeCrashed) {
		t.Errorf("err = %v, want ErrNodeCrashed", err)
	}
	if k.Metrics.KernelPanics != 1 {
		t.Errorf("KernelPanics = %d, want 1", k.Metrics.KernelPanics)
	}

	// Reboot clears the panic; the file table is gone but files remain.
	k.Reboot(0)
	if _, _, err := k.Call(0, "read", [][]byte{I64(fd), I64(1)}); err == nil {
		t.Error("old fd must be invalid after reboot")
	}
	if _, ok := k.ReadFile(0, "f"); !ok {
		t.Error("filesystem must survive reboot")
	}
}

func TestImmediateStopFault(t *testing.T) {
	k := New()
	k.WriteFile(0, "f", []byte("x"))
	fd := Int(call(t, k, 0, "open", []byte("f"))[0])
	k.InjectFault(0, 0)
	_, _, err := k.Call(0, "read", [][]byte{I64(fd), I64(1)})
	if !errors.Is(err, ErrNodeCrashed) {
		t.Errorf("err = %v, want immediate crash", err)
	}
	if k.FaultCorrupted(0) {
		t.Error("a zero-window fault is a pure stop failure")
	}
}

func TestGettimeofdayAndSelect(t *testing.T) {
	now := 42 * time.Millisecond
	k := New()
	k.Clock = func() time.Duration { return now }
	ret, nd, err := k.Call(0, "gettimeofday", nil)
	if err != nil || nd != event.TransientND || Int(ret[0]) != int64(now) {
		t.Errorf("gettimeofday = %v %v %v", ret, nd, err)
	}
	ret, nd, err = k.Call(0, "select", nil)
	if err != nil || nd != event.TransientND || Int(ret[0]) != 1 {
		t.Errorf("select = %v %v %v", ret, nd, err)
	}
}

func TestUnknownSyscall(t *testing.T) {
	k := New()
	if _, _, err := k.Call(0, "frobnicate", nil); err == nil {
		t.Error("unknown syscall must fail")
	}
}

func TestIntHelpers(t *testing.T) {
	if Int(I64(-7)) != -7 {
		t.Error("I64/Int round trip failed")
	}
	if Int([]byte{1, 2}) != 0 {
		t.Error("short Int must return 0")
	}
}

func TestExpandResources(t *testing.T) {
	k := New()
	k.WriteFile(0, "f", nil)
	for i := 0; i < MaxOpenFiles; i++ {
		call(t, k, 0, "open", []byte("f"))
	}
	if _, _, err := k.Call(0, "open", [][]byte{[]byte("f")}); err == nil {
		t.Fatal("expected fd exhaustion")
	}
	if got := k.ExpandResources(0); got != 2*MaxOpenFiles {
		t.Errorf("new limit = %d", got)
	}
	// The formerly fixed-ND failure now succeeds.
	call(t, k, 0, "open", []byte("f"))
}

func TestLseekAndBadFDs(t *testing.T) {
	k := New()
	if _, _, err := k.Call(0, "lseek", [][]byte{I64(99), I64(0)}); err == nil {
		t.Error("lseek on bad fd must fail")
	}
	if _, _, err := k.Call(0, "write", [][]byte{I64(99), []byte("x")}); err == nil {
		t.Error("write on bad fd must fail")
	}
	if _, _, err := k.Call(0, "truncate", [][]byte{[]byte("missing"), I64(0)}); err == nil {
		t.Error("truncate of missing file must fail")
	}
	if _, _, err := k.Call(0, "getpid", nil); err != nil {
		t.Error("getpid must succeed")
	}
}
