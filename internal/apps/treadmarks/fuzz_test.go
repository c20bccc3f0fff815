package treadmarks

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"failtrans/internal/apps/apputil"
)

// FuzzDecodeMsg: decodeMsg answers any payload — a protocol message, a
// truncated one, a hostile data length — without panicking. A message it
// accepts re-encodes to the payload's prefix and views its data inside the
// payload, capacity-clamped; one it rejects fails with apputil.ErrNegLength
// or apputil.ErrOverrun and views nothing.
func FuzzDecodeMsg(f *testing.F) {
	grant := wire(dsmMsg{Type: msgGrant, Page: 2, Data: bytes.Repeat([]byte{5}, 64)})
	f.Add(grant)
	f.Add(wire(dsmMsg{Type: msgReq, Page: 1, Requester: 3}))
	f.Add(withDataLen(grant, -1))
	f.Add(withDataLen(grant, 65))
	f.Add(withDataLen(grant, math.MaxInt64))
	f.Add(grant[:20])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg(b)
		if err != nil {
			if !errors.Is(err, apputil.ErrNegLength) && !errors.Is(err, apputil.ErrOverrun) {
				t.Fatalf("decodeMsg failed with %v, want ErrNegLength or ErrOverrun", err)
			}
			if m.Data != nil {
				t.Fatalf("a rejected message views %d data bytes", len(m.Data))
			}
			return
		}
		n := m.encodedLen()
		if n > len(b) || !bytes.Equal(wire(m), b[:n]) {
			t.Fatalf("accepted %d-byte message does not re-encode to the payload's first %d bytes", len(b), n)
		}
		if len(m.Data) > 0 && (&m.Data[0] != &b[5*8] || cap(m.Data) != len(m.Data)) {
			t.Fatalf("data is not a capacity-clamped view of the payload (cap %d)", cap(m.Data))
		}
	})
}
