package treadmarks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"failtrans/internal/apps/apputil"
)

// wire encodes m as a DSM message payload.
func wire(m dsmMsg) []byte {
	var e apputil.Enc
	m.appendTo(&e)
	return e.B
}

// withDataLen rewrites the data length word of an encoded message.
func withDataLen(b []byte, n int64) []byte {
	out := bytes.Clone(b)
	binary.LittleEndian.PutUint64(out[4*8:], uint64(n))
	return out
}

// TestDecodeMsgViewsPayload: a decoded message's page data is the payload's
// bytes in place, capacity-clamped, and a hostile data length — negative,
// past the payload, or near MaxInt64 — fails with the decoder's static
// errors and views nothing.
func TestDecodeMsgViewsPayload(t *testing.T) {
	page := bytes.Repeat([]byte{7}, PageSize)
	b := wire(dsmMsg{Type: msgGrant, Page: 3, Data: page})
	m, err := decodeMsg(b)
	if err != nil || m.Type != msgGrant || m.Page != 3 || !bytes.Equal(m.Data, page) {
		t.Fatalf("decodeMsg = %+v, %v", m, err)
	}
	if &m.Data[0] != &b[5*8] || cap(m.Data) != len(m.Data) {
		t.Errorf("data is not a capacity-clamped view of the payload (cap %d)", cap(m.Data))
	}
	for _, c := range []struct {
		name    string
		payload []byte
		want    error
	}{
		{"negative length", withDataLen(b, -1), apputil.ErrNegLength},
		{"length past the payload", withDataLen(b, PageSize+1), apputil.ErrOverrun},
		{"MaxInt64 length", withDataLen(b, math.MaxInt64), apputil.ErrOverrun},
		{"truncated data", b[:len(b)-1], apputil.ErrOverrun},
		{"truncated header", b[:3*8+5], apputil.ErrOverrun},
	} {
		m, err := decodeMsg(c.payload)
		if !errors.Is(err, c.want) || m.Data != nil {
			t.Errorf("%s: err %v with %d data bytes, want %v and none", c.name, err, len(m.Data), c.want)
		}
	}
}

// TestQueuesPopInPlace: the outbox, the page request queues and the lock
// queues pop by moving their tail down, so an append after a pop reuses the
// backing array; a sent surrendered page goes to the spare pool and the
// next stored page reuses it.
func TestQueuesPopInPlace(t *testing.T) {
	d := newDSM(0, 2, 2) // manages and owns page 0
	d.Outbox = make([]outMsg, 0, 4)
	if err := d.Handle(dsmMsg{Type: msgFetch, Page: 0, Requester: 1}); err != nil {
		t.Fatal(err)
	}
	d.EnterBarrier()
	d.Fault(1)
	backing, page := &d.Outbox[:1][0], d.Outbox[0].Msg.Data
	d.popOutbox()
	d.Fault(1)
	if &d.Outbox[:1][0] != backing || len(d.Outbox) != 2 || d.Outbox[0].Msg.Type != msgReq {
		t.Errorf("outbox after a pop and an append: %+v, moved=%v", d.Outbox, &d.Outbox[:1][0] != backing)
	}
	if len(d.spare) != 1 || &d.spare[0][0] != &page[0] {
		t.Fatalf("the sent page did not go to the spare pool: %d spares", len(d.spare))
	}
	grant := wire(dsmMsg{Type: msgGrant, Page: 1, Data: bytes.Repeat([]byte{9}, PageSize)})
	m, err := decodeMsg(grant)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Handle(m); err != nil {
		t.Fatal(err)
	}
	if got := d.Pages[1]; &got[0] != &page[0] || !bytes.Equal(got, m.Data) || len(d.spare) != 0 {
		t.Errorf("the granted page was not stored in the spare buffer (spares left %d)", len(d.spare))
	}

	q := []int{1, 2, 3}
	head, rest := popFront(q)
	if head != 1 || len(rest) != 2 || rest[0] != 2 || &rest[0] != &q[0] {
		t.Errorf("popFront = %d, %v; want 1, [2 3] in the same array", head, rest)
	}
	d.LockOwner[5] = 1
	d.LockQueue[5] = append(make([]int, 0, 4), 2, 3)
	lq := &d.LockQueue[5][0]
	if err := d.Handle(dsmMsg{Type: msgLockRel, Page: 5, Requester: 1}); err != nil {
		t.Fatal(err)
	}
	if got := d.LockQueue[5]; len(got) != 1 || got[0] != 3 || &got[0] != lq || d.LockOwner[5] != 2 {
		t.Errorf("lock queue after a release: %v, owner %d", got, d.LockOwner[5])
	}
}
