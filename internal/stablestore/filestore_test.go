package stablestore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func TestMediumCommitCost(t *testing.T) {
	m := Medium{PerCommit: time.Millisecond, PerByte: time.Microsecond}
	if got := m.CommitCost(0); got != time.Millisecond {
		t.Errorf("CommitCost(0) = %v", got)
	}
	if got := m.CommitCost(1000); got != time.Millisecond+1000*time.Microsecond {
		t.Errorf("CommitCost(1000) = %v", got)
	}
}

func TestRioFasterThanDisk(t *testing.T) {
	for _, n := range []int{0, 4096, 1 << 20} {
		if Rio.CommitCost(n) >= Disk.CommitCost(n) {
			t.Errorf("Rio commit of %d bytes should be cheaper than disk", n)
		}
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("world")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("a"); !ok || string(v) != "hello" {
		t.Errorf("Get(a) = %q, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get of a missing key must report !ok")
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v1"))
	s.Put("k", []byte("v2"))
	s.Put("gone", []byte("x"))
	s.Delete("gone")
	s.Close()

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("k"); !ok || string(v) != "v2" {
		t.Errorf("after reopen Get(k) = %q, %v, want v2", v, ok)
	}
	if _, ok := s2.Get("gone"); ok {
		t.Error("tombstone must survive reopen")
	}
	if keys := s2.Keys(); len(keys) != 1 || keys[0] != "k" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestFileStoreTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("safe", []byte("data"))
	s.Close()

	// Simulate a torn write: append half a record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x31, 0x53, 0x54, 0x46, 9, 0, 0}) // magic + partial header
	f.Close()

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	if v, ok := s2.Get("safe"); !ok || string(v) != "data" {
		t.Errorf("pre-tear data lost: %q, %v", v, ok)
	}
	// The store must be writable again after truncating the tear.
	if err := s2.Put("after", []byte("tear")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, ok := s3.Get("after"); !ok || string(v) != "tear" {
		t.Errorf("post-tear write lost: %q, %v", v, ok)
	}
}

func TestFileStoreInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("one", []byte("11111111"))
	s.Put("two", []byte("22222222"))
	s.Close()

	// Flip a payload byte of the first record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[16+1] ^= 0xff // first byte region after the 16-byte header
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Error("interior corruption must be reported, not silently dropped")
	}
}

func TestFileStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put("k", bytes.Repeat([]byte{byte(i)}, 100))
	}
	s.Put("other", []byte("keep"))
	before, _ := os.Stat(path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compact did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	s.Close()
	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("other"); !ok || string(v) != "keep" {
		t.Error("compaction lost a live key")
	}
	if v, ok := s2.Get("k"); !ok || v[0] != 49 {
		t.Errorf("compaction kept wrong version of k: %v %v", v, ok)
	}
}

// TestFileStoreMatchesMapModel: a random operation sequence applied to the
// file store and to a plain map must agree, including across a reopen.
func TestFileStoreMatchesMapModel(t *testing.T) {
	dir := t.TempDir()
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		path := filepath.Join(dir, "s", "prop.log")
		os.RemoveAll(filepath.Dir(path))
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string]string)
		keys := []string{"a", "b", "c", "d"}
		for i := 0; i < 30; i++ {
			k := keys[r.Intn(len(keys))]
			switch r.Intn(3) {
			case 0:
				v := string(rune('0' + r.Intn(10)))
				s.Put(k, []byte(v))
				model[k] = v
			case 1:
				s.Delete(k)
				delete(model, k)
			default:
				got, ok := s.Get(k)
				want, wok := model[k]
				if ok != wok || (ok && string(got) != want) {
					s.Close()
					return false
				}
			}
		}
		s.Close()
		s2, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		for _, k := range keys {
			got, ok := s2.Get(k)
			want, wok := model[k]
			if ok != wok || (ok && string(got) != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenFile: a log file with arbitrary contents must open (recovering
// what it can) or error — never panic, never loop.
func FuzzOpenFile(f *testing.F) {
	good := func() []byte {
		dir := f.TempDir()
		s, err := OpenFile(filepath.Join(dir, "seed.log"))
		if err != nil {
			f.Fatal(err)
		}
		s.Put("k", []byte("v"))
		s.Close()
		data, _ := os.ReadFile(filepath.Join(dir, "seed.log"))
		return data
	}()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("random garbage that is not a record"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path)
		if err != nil {
			return
		}
		// A recovered store must be fully usable.
		if err := s.Put("after", []byte("fuzz")); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		if v, ok := s.Get("after"); !ok || string(v) != "fuzz" {
			t.Fatal("Get after recovery failed")
		}
		s.Close()
	})
}

func TestFileStoreDeleteMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Delete("never-there"); err != nil {
		t.Errorf("deleting a missing key must be a no-op: %v", err)
	}
}

func TestFileStoreCompactEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Compact(); err != nil {
		t.Errorf("compacting an empty store: %v", err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Errorf("store unusable after empty compaction: %v", err)
	}
}

func TestOpenFileBadDirectory(t *testing.T) {
	// Parent path is a file, not a directory: open must fail cleanly.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(filepath.Join(blocker, "sub", "s.log")); err == nil {
		t.Error("open under a file must fail")
	}
}

func TestLogCost(t *testing.T) {
	m := Medium{PerLog: time.Millisecond, PerByte: time.Microsecond}
	if got := m.LogCost(100); got != time.Millisecond+100*time.Microsecond {
		t.Errorf("LogCost = %v", got)
	}
}
