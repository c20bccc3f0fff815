// Package cow is the cowcheck golden fixture: a miniature of the nvi
// editor's fork-sharing contract. Editor.Lines mirrors the PR 6 bug —
// insertBad is the un-privatized splice that scribbled on a frozen fork
// template, and must be a finding.
package cow

type Editor struct {
	// Lines may alias a frozen fork template's per-line buffers until a
	// privatizer runs.
	//failtrans:cowshared privatizeLines,SnapshotUndo — forks share the backing until first write
	Lines [][]byte

	//failtrans:cowshared privatizeLines — recomputed alongside Lines
	sums []uint32

	//failtrans:cowshared none — capacity-clamped views; every store must justify itself
	log []int

	// nodes mirrors the kernel's lazily-cloned node map.
	//failtrans:cowshared cloneNode — fork maps fill in by cloning template entries
	nodes map[int]*int

	// valid is mutated only through its own methods; the mutator-method
	// rule must see bits.set as a store.
	//failtrans:cowshared privatizeLines — validity bits ride with the line backing
	valid bits

	// index mirrors postgres's shared B-tree: a pointer field whose
	// methods store fields of their pointer receiver.
	//failtrans:cowshared ownIndex — forks share the template's tree until first mutation
	index *tree

	// stats has a value-receiver method, which writes only its copy.
	//failtrans:cowshared privatizeLines — fixture: never privatized
	stats counter

	shared bool
}

type tree struct {
	size   int
	sealed bool
}

// put stores a field through its pointer receiver: a mutator.
func (t *tree) put() { t.size++ }

// len only reads.
func (t *tree) len() int { return t.size }

func (e *Editor) ownIndex() {
	if e.index.sealed {
		c := *e.index
		c.sealed = false
		e.index = &c
	}
}

type counter struct{ n int }

// bump increments a copy of the counter: not a store through the field.
func (c counter) bump() { c.n++ }

type bits []uint64

func (b bits) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bits) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (e *Editor) privatizeLines() {
	if !e.shared {
		return
	}
	lines := make([][]byte, len(e.Lines))
	copy(lines, e.Lines)
	e.Lines = lines
	e.shared = false
}

func (e *Editor) SnapshotUndo() {
	e.privatizeLines()
}

// insertBad is the PR 6 nvi bug in miniature: splicing into Lines without
// privatizing first.
func (e *Editor) insertBad(row int, b byte) {
	line := e.Lines[row]
	e.Lines[row] = append(line, b) // want `store through COW-shared field Editor\.Lines`
}

// insertGood privatizes on every path first.
func (e *Editor) insertGood(row int, b byte) {
	e.privatizeLines()
	e.Lines[row] = append(e.Lines[row], b)
}

// viaSnapshot shows a second listed privatizer sanctioning the store.
func (e *Editor) viaSnapshot(row int) {
	e.SnapshotUndo()
	e.Lines[row] = nil
}

// condBad privatizes on only one arm, so the store after the join is
// reachable unprivatized.
func (e *Editor) condBad(row int) {
	if e.shared {
		e.privatizeLines()
	}
	e.Lines[row] = nil // want `store through COW-shared field Editor\.Lines`
}

// condGood privatizes on both arms.
func (e *Editor) condGood(row int) {
	if e.shared {
		e.privatizeLines()
	} else {
		e.SnapshotUndo()
	}
	e.Lines[row] = nil
}

// sameStatement mirrors the kernel's lazy node clone: the privatizer on
// the right-hand side evaluates before the store completes, so
// `nodes[pid] = cloneNode(n)` is sanctioned by itself.
func (e *Editor) sameStatement(pid int) {
	e.nodes[pid] = cloneNode(e.nodes[0])
}

// cloneNode is a package-level privatizer (the kernel shape).
func cloneNode(n *int) *int {
	c := *n
	return &c
}

// copyBad writes the shared backing through the builtin.
func (e *Editor) copyBad(row int, data []byte) {
	copy(e.Lines[row], data) // want `copy into COW-shared field Editor\.Lines`
}

// copyGood is dominated.
func (e *Editor) copyGood(row int, data []byte) {
	e.privatizeLines()
	copy(e.Lines[row], data)
}

// appendBad reassigns the header, but append writes in place whenever
// capacity allows — the idiom is still a store.
func (e *Editor) appendBad(line []byte) {
	e.Lines = append(e.Lines, line) // want `append over COW-shared field Editor\.Lines`
}

// headerOnly replaces the slice header without touching the backing;
// plain reassignment is not a finding.
func (e *Editor) headerOnly(lines [][]byte) {
	e.Lines = lines
}

// wrongReceiver privatizes a different editor, which must not sanction
// the store.
func (e *Editor) wrongReceiver(other *Editor, row int) {
	other.privatizeLines()
	e.Lines[row] = nil // want `store through COW-shared field Editor\.Lines`
}

// mutatorBad hits valid's backing through its set method.
func (e *Editor) mutatorBad(i int) {
	e.valid.set(i) // want `mutating call set on COW-shared field Editor\.valid`
}

// mutatorGood is dominated; the pure query method never flags.
func (e *Editor) mutatorGood(i int) bool {
	e.privatizeLines()
	e.valid.set(i)
	return e.valid.has(i)
}

// sumsBad exercises the second annotated field independently.
func (e *Editor) sumsBad(i int) {
	e.sums[i]++ // want `store through COW-shared field Editor\.sums`
}

// noPrivatizer: the "none" payload means every store needs a written
// cowok reason.
func (e *Editor) noPrivatizer(i int) {
	e.log[i] = 1 // want `field has no privatizer`
	e.log[i] = 2 //failtrans:cowok fixture: the clamped view makes this store private
}

// loopBad privatizes only after the first store iteration.
func (e *Editor) loopBad(rows []int) {
	for _, r := range rows {
		e.Lines[r] = nil // want `store through COW-shared field Editor\.Lines`
		e.privatizeLines()
	}
}

// fresh constructs its own editor; nothing can be template-shared yet.
func fresh(n int) *Editor {
	e := &Editor{Lines: make([][]byte, n)}
	e.Lines[0] = []byte("seed")
	return e
}

// valueCopy duplicates slice headers, not backing — stores through the
// copy still hit the template and must be flagged.
func valueCopy(e *Editor, row int) *Editor {
	ne := *e
	ne.Lines[row] = nil // want `store through COW-shared field Editor\.Lines`
	return &ne
}

// putBad mutates the shared tree without owning it.
func (e *Editor) putBad() {
	e.index.put() // want `mutating call put on COW-shared field Editor\.index`
}

// putGood owns the tree first; reading it needs nothing.
func (e *Editor) putGood() int {
	n := e.index.len()
	e.ownIndex()
	e.index.put()
	return n
}

// valueMethod calls a value-receiver method, which cannot write the field.
func (e *Editor) valueMethod() {
	e.stats.bump()
}
