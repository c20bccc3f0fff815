package postgres

// EncodeTuple serializes a key/value pair.
func EncodeTuple(key int64, value []byte) []byte {
	return appendTuple(make([]byte, 0, 10+len(value)), key, value)
}

// LiveTuples counts non-deleted slots.
func (p *Page) LiveTuples() int {
	n := 0
	for i := 0; i < p.NSlots(); i++ {
		if _, ln := p.slot(i); ln != 0 {
			n++
		}
	}
	return n
}
