package apputil

import (
	"encoding/binary"
	"testing"
)

// FuzzDecNoPanic: the decoder must reject arbitrary bytes gracefully (set
// Err), never panic — checkpoint images can be corrupted by the faults
// under study.
func FuzzDecNoPanic(f *testing.F) {
	var e Enc
	e.Int(3)
	e.Bytes([]byte("abc"))
	e.F64(1.5)
	e.Bool(true)
	f.Add(e.B)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Length words that used to wrap pos+n past the bounds check once
	// pos > 0 and reach make([]byte, n): MaxInt64 behind one decoded word
	// (what Bytes sees below), and the two hostile checkpoint images of
	// sim's TestRestoreCheckpointImageHostile (mode byte, cursor, send
	// sequence, then a 2^60 highwater count or a MaxInt64 state length).
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	f.Add(append(word(3), word(1<<63-1)...))
	header := append([]byte{0}, append(word(3), word(5)...)...)
	f.Add(append(append([]byte(nil), header...), word(1<<60)...))
	f.Add(append(append(append([]byte(nil), header...), word(0)...), word(1<<63-1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := Dec{B: data}
		// Exercise every accessor in a fixed pattern; all must return
		// zero values once Err is set.
		_ = d.Int()
		_ = d.Bytes()
		_ = d.F64()
		_ = d.Bool()
		_ = d.Str()
		_ = d.Byte()
		_ = d.I64()
		_ = d.BytesInto(nil)
		_ = d.BytesView()
		_ = d.StrReuse("")
		d.Skip(d.Int())
		_ = d.Count(8)
	})
}
