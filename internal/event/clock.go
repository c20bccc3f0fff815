package event

// VC is a vector clock: VC[p] counts the events of process p known to have
// happened at or before the clock's owner. Vector clocks characterize
// happens-before exactly: for distinct events a, b with clocks va, vb that
// count their own event, a happens-before b iff va.LE(vb).
type VC []int

// NewVC returns a zeroed vector clock for n processes.
func NewVC(n int) VC { return make(VC, n) }

// Clone returns an independent copy of the clock.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Merge sets v to the component-wise maximum of v and o.
func (v VC) Merge(o VC) {
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// LE reports whether v ≤ o component-wise.
func (v VC) LE(o VC) bool {
	for i := range v {
		ov := 0
		if i < len(o) {
			ov = o[i]
		}
		if v[i] > ov {
			return false
		}
	}
	return true
}
