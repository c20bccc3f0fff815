package postgres

import (
	"fmt"
	"slices"

	"failtrans/internal/apps/apputil"
)

// btreeOrder is the maximum keys per node before a split.
const btreeOrder = 32

// RID is a record id: heap page number and slot.
type RID struct {
	Page uint32
	Slot uint16
}

// node is one B-tree node. Leaves hold RIDs; interior nodes hold children.
// Deletes remove keys from leaves without rebalancing (underfull leaves are
// permitted, as in append-mostly workloads); the ordering and uniform-depth
// invariants always hold.
type node struct {
	Leaf bool
	// sealed marks a node of a frozen fork template's index (DB.Freeze):
	// the template and its forks share it, so it is immutable forever. Its
	// subtree is sealed with it. A writer copies it out first (own).
	sealed   bool
	Keys     []int64
	RIDs     []RID   // leaves only, parallel to Keys
	Children []*node // interior only, len(Keys)+1
}

// leafBlock and innerBlock are a node allocated together with the arrays
// behind its slices, sized for the most a node holds between an insert and
// its split: a node a split, a fork's first write or a restore makes is one
// object, and no insert into it reallocates.
type leafBlock struct {
	node
	keys [btreeOrder + 1]int64
	rids [btreeOrder + 1]RID
}

type innerBlock struct {
	node
	keys     [btreeOrder + 1]int64
	children [btreeOrder + 2]*node
}

// newNode returns an empty node with room for btreeOrder+1 keys.
func newNode(leaf bool) *node {
	if leaf {
		//failtrans:alloc index growth, copy-on-write and restore: one block per node a split makes, a fork first writes or a rollback decodes
		b := &leafBlock{}
		b.Leaf, b.Keys, b.RIDs = true, b.keys[:0], b.rids[:0]
		return &b.node
	}
	//failtrans:alloc index growth, copy-on-write and restore: one block per node a split makes, a fork first writes or a rollback decodes
	b := &innerBlock{}
	b.Keys, b.Children = b.keys[:0], b.children[:0]
	return &b.node
}

// BTree is an in-memory B-tree index from int64 keys to heap RIDs. A fork's
// index shares its template's sealed nodes (fork); every writer copies the
// sealed nodes on its root-to-leaf path before it writes (own).
type BTree struct {
	root *node
	size int
}

// NewBTree returns an empty index.
func NewBTree() *BTree { return &BTree{root: newNode(true)} }

// seal marks every node immutable (DB.Freeze). The walk stops at a node
// already sealed, whose subtree is, so sealing a fork's index writes none of
// its template's nodes and a second seal writes nothing.
func (t *BTree) seal() { t.root.seal() }

func (n *node) seal() {
	if n.sealed {
		return
	}
	for _, c := range n.Children {
		c.seal()
	}
	n.sealed = true
}

// fork returns an index that shares t's nodes, which seal has made
// immutable.
func (t *BTree) fork() *BTree {
	return &BTree{root: t.root, size: t.size}
}

// mustMutable panics if n is sealed into a fork template: writing it would
// change the template and every fork that shares the node.
func (n *node) mustMutable() {
	if n.sealed {
		panic("postgres: write to an index node sealed into a fork template")
	}
}

// own returns n, or a copy of it with room for btreeOrder+1 keys when it is
// sealed: a writer owns each node on its path before it writes the node.
func (n *node) own() *node {
	if !n.sealed {
		return n
	}
	c := newNode(n.Leaf)
	c.Keys = append(c.Keys, n.Keys...)
	c.RIDs = append(c.RIDs, n.RIDs...)
	c.Children = append(c.Children, n.Children...)
	return c
}

// ownLeaf returns the leaf covering key after owning every node on the path
// to it, so the caller may write the leaf. Key math.MaxInt64 reaches the
// rightmost leaf.
func (t *BTree) ownLeaf(key int64) *node {
	t.root = t.root.own()
	n := t.root
	for !n.Leaf {
		ci := childIndex(n.Keys, key)
		n.Children[ci] = n.Children[ci].own()
		n = n.Children[ci]
	}
	return n
}

// Len returns the number of live keys.
func (t *BTree) Len() int { return t.size }

// Get returns the RID for key.
func (t *BTree) Get(key int64) (RID, bool) {
	n := t.root
	for !n.Leaf {
		n = n.Children[childIndex(n.Keys, key)]
	}
	i, _ := slices.BinarySearch(n.Keys, key)
	if i < len(n.Keys) && n.Keys[i] == key {
		return n.RIDs[i], true
	}
	return RID{}, false
}

// childIndex returns which child of an interior node covers key: the first
// separator strictly greater than key. The search probes as sort.Search
// does, so a corrupted (unsorted) node routes the same way.
func childIndex(keys []int64, key int64) int {
	i, _ := slices.BinarySearchFunc(keys, key, after)
	return i
}

// after orders a separator against a search key so that a binary search
// finds the first separator strictly greater than the key.
func after(sep, key int64) int {
	if sep > key {
		return 1
	}
	return -1
}

// Put inserts or replaces key's RID. It reports whether the key was new.
func (t *BTree) Put(key int64, rid RID) bool {
	t.root = t.root.own()
	added, split, right, sep := t.root.put(key, rid)
	if split {
		root := newNode(false)
		root.Keys = append(root.Keys, sep)
		root.Children = append(root.Children, t.root, right)
		t.root = root
	}
	if added {
		t.size++
	}
	return added
}

// put inserts into the subtree of n, which the caller owns; on split it
// returns the new right sibling and separator key.
func (n *node) put(key int64, rid RID) (added, split bool, right *node, sep int64) {
	n.mustMutable()
	if n.Leaf {
		i, _ := slices.BinarySearch(n.Keys, key)
		if i < len(n.Keys) && n.Keys[i] == key {
			n.RIDs[i] = rid
			return false, false, nil, 0
		}
		n.Keys = append(n.Keys, 0)
		copy(n.Keys[i+1:], n.Keys[i:])
		n.Keys[i] = key
		n.RIDs = append(n.RIDs, RID{})
		copy(n.RIDs[i+1:], n.RIDs[i:])
		n.RIDs[i] = rid
		added = true
	} else {
		ci := childIndex(n.Keys, key)
		n.Children[ci] = n.Children[ci].own()
		a, s, r, sk := n.Children[ci].put(key, rid)
		added = a
		if s {
			n.Keys = append(n.Keys, 0)
			copy(n.Keys[ci+1:], n.Keys[ci:])
			n.Keys[ci] = sk
			n.Children = append(n.Children, nil)
			copy(n.Children[ci+2:], n.Children[ci+1:])
			n.Children[ci+1] = r
		}
	}
	if len(n.Keys) <= btreeOrder {
		return added, false, nil, 0
	}
	// Split. The left half keeps its arrays, so its next inserts fill
	// the room the right half's entries leave.
	mid := len(n.Keys) / 2
	r := newNode(n.Leaf)
	if n.Leaf {
		r.Keys = append(r.Keys, n.Keys[mid:]...)
		r.RIDs = append(r.RIDs, n.RIDs[mid:]...)
		n.Keys = n.Keys[:mid]
		n.RIDs = n.RIDs[:mid]
		// childIndex routes key == separator to the right child, so
		// the separator is the right leaf's minimum.
		sep = r.Keys[0]
	} else {
		sep = n.Keys[mid]
		r.Keys = append(r.Keys, n.Keys[mid+1:]...)
		r.Children = append(r.Children, n.Children[mid+1:]...)
		n.Keys = n.Keys[:mid]
		clear(n.Children[mid+1:]) // the moved children stay reachable from r only
		n.Children = n.Children[:mid+1]
	}
	return added, true, r, sep
}

// Delete removes key; it reports whether the key existed.
func (t *BTree) Delete(key int64) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	t.ownLeaf(key).remove(key)
	t.size--
	return true
}

// remove deletes key, which the caller has found, from leaf n.
func (n *node) remove(key int64) {
	n.mustMutable()
	i, _ := slices.BinarySearch(n.Keys, key)
	n.Keys = append(n.Keys[:i], n.Keys[i+1:]...)
	n.RIDs = append(n.RIDs[:i], n.RIDs[i+1:]...)
}

// appendRange appends every entry with a key in [lo, hi] to dst, in key
// order, and returns the extended slice.
func (t *BTree) appendRange(dst []hit, lo, hi int64) []hit {
	return t.root.appendRange(dst, lo, hi)
}

func (n *node) appendRange(dst []hit, lo, hi int64) []hit {
	if n.Leaf {
		i, _ := slices.BinarySearch(n.Keys, lo)
		for ; i < len(n.Keys) && n.Keys[i] <= hi; i++ {
			dst = append(dst, hit{n.Keys[i], n.RIDs[i]})
		}
		return dst
	}
	// First child that can hold keys >= lo: child ci covers
	// [keys[ci-1], keys[ci]), so we need the first keys[ci] > lo.
	for ci := childIndex(n.Keys, lo); ci < len(n.Children); ci++ {
		if ci > 0 && n.Keys[ci-1] > hi {
			break
		}
		dst = n.Children[ci].appendRange(dst, lo, hi)
	}
	return dst
}

// Check verifies the ordering, bound, and uniform-depth invariants; it
// returns an error naming the first violation.
func (t *BTree) Check() error {
	depth := -1
	count := 0
	var last int64
	haveLast := false
	var walk func(n *node, d int, lo, hi *int64) error
	walk = func(n *node, d int, lo, hi *int64) error {
		for i, k := range n.Keys {
			if i > 0 && n.Keys[i-1] >= k {
				return fmt.Errorf("postgres: btree node keys out of order (%d before %d)", n.Keys[i-1], k)
			}
			// Child i covers [keys[i-1], keys[i]).
			if lo != nil && k < *lo {
				return fmt.Errorf("postgres: btree key %d violates lower bound %d", k, *lo)
			}
			if hi != nil && k >= *hi {
				return fmt.Errorf("postgres: btree key %d violates upper bound %d", k, *hi)
			}
		}
		if n.Leaf {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("postgres: btree leaf depth %d != %d", d, depth)
			}
			if len(n.RIDs) != len(n.Keys) {
				return fmt.Errorf("postgres: btree leaf rid/key mismatch")
			}
			count += len(n.Keys)
			for _, k := range n.Keys {
				if haveLast && k <= last {
					return fmt.Errorf("postgres: btree keys out of order across leaves (%d after %d)", k, last)
				}
				last, haveLast = k, true
			}
			return nil
		}
		if len(n.Children) != len(n.Keys)+1 {
			return fmt.Errorf("postgres: btree interior child count %d for %d keys", len(n.Children), len(n.Keys))
		}
		for i, c := range n.Children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.Keys[i-1]
			}
			if i < len(n.Keys) {
				chi = &n.Keys[i]
			}
			if err := walk(c, d+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("postgres: btree size %d != counted %d", t.size, count)
	}
	return nil
}

// Marshal serializes the tree (preorder).
func (t *BTree) Marshal(e *apputil.Enc) {
	e.Int(t.size)
	var emit func(n *node)
	emit = func(n *node) {
		e.Bool(n.Leaf)
		e.Int(len(n.Keys))
		for _, k := range n.Keys {
			e.I64(k)
		}
		if n.Leaf {
			for _, r := range n.RIDs {
				e.I64(int64(r.Page))
				e.I64(int64(r.Slot))
			}
			return
		}
		for _, c := range n.Children {
			emit(c)
		}
	}
	emit(t.root)
}

// UnmarshalBTree reverses Marshal. Each node is decoded into a block
// (newNode), so a restored node takes inserts up to its split without
// reallocating. A node size the rest of the input cannot hold fails before
// the node's block is allocated.
func UnmarshalBTree(d *apputil.Dec) (*BTree, error) {
	size := d.Int()
	root := readNode(d)
	if d.Err != nil {
		return nil, d.Err
	}
	return &BTree{root: root, size: size}, nil
}

// readNode decodes one node and its subtree; it returns nil with d.Err set
// on input it cannot decode.
func readNode(d *apputil.Dec) *node {
	leaf := d.Bool()
	// A leaf's key carries its RID's two words; an interior key brings a
	// child of at least a flag and a size word.
	elem := 8 + 9
	if leaf {
		elem = 8 + 16
	}
	k := d.Count(elem)
	if d.Err == nil && k > btreeOrder+1 {
		d.Err = fmt.Errorf("postgres: implausible node size %d", k)
	}
	if d.Err != nil {
		return nil
	}
	n := newNode(leaf)
	n.Keys = n.Keys[:k]
	for i := range n.Keys {
		n.Keys[i] = d.I64()
	}
	if leaf {
		n.RIDs = n.RIDs[:k]
		for i := range n.RIDs {
			n.RIDs[i] = RID{Page: uint32(d.I64()), Slot: uint16(d.I64())}
		}
		return n
	}
	n.Children = n.Children[:k+1]
	for i := range n.Children {
		if n.Children[i] = readNode(d); n.Children[i] == nil {
			return nil
		}
	}
	return n
}
