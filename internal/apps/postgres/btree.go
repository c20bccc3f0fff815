package postgres

import (
	"fmt"
	"slices"
	"sort"

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
	Leaf     bool
	Keys     []int64
	RIDs     []RID   // leaves only, parallel to Keys
	Children []*node // interior only, len(Keys)+1
}

// BTree is an in-memory B-tree index from int64 keys to heap RIDs.
type BTree struct {
	root *node
	size int
}

// clone returns a structural copy of the tree that shares no backing array
// with it.
func (t *BTree) clone() *BTree {
	return &BTree{root: t.root.clone(), size: t.size}
}

func (n *node) clone() *node {
	c := &node{Leaf: n.Leaf, Keys: slices.Clone(n.Keys), RIDs: slices.Clone(n.RIDs)}
	if !n.Leaf {
		c.Children = make([]*node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.clone()
		}
	}
	return c
}

// NewBTree returns an empty index.
func NewBTree() *BTree { return &BTree{root: &node{Leaf: true}} }

// Len returns the number of live keys.
func (t *BTree) Len() int { return t.size }

// Get returns the RID for key.
func (t *BTree) Get(key int64) (RID, bool) {
	n := t.root
	for !n.Leaf {
		n = n.Children[childIndex(n.Keys, key)]
	}
	i := sort.Search(len(n.Keys), func(i int) bool { return n.Keys[i] >= key })
	if i < len(n.Keys) && n.Keys[i] == key {
		return n.RIDs[i], true
	}
	return RID{}, false
}

// childIndex returns which child of an interior node covers key: the first
// separator strictly greater than key.
func childIndex(keys []int64, key int64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

// Put inserts or replaces key's RID. It reports whether the key was new.
func (t *BTree) Put(key int64, rid RID) bool {
	added, split, right, sep := t.root.put(key, rid)
	if split {
		t.root = &node{Keys: []int64{sep}, Children: []*node{t.root, right}}
	}
	if added {
		t.size++
	}
	return added
}

// put inserts into the subtree; on split it returns the new right sibling
// and separator key.
func (n *node) put(key int64, rid RID) (added, split bool, right *node, sep int64) {
	if n.Leaf {
		i := sort.Search(len(n.Keys), func(i int) bool { return n.Keys[i] >= key })
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
	// Split.
	mid := len(n.Keys) / 2
	r := &node{Leaf: n.Leaf}
	if n.Leaf {
		r.Keys = append(r.Keys, n.Keys[mid:]...)
		r.RIDs = append(r.RIDs, n.RIDs[mid:]...)
		n.Keys = n.Keys[:mid:mid]
		n.RIDs = n.RIDs[:mid:mid]
		// childIndex routes key == separator to the right child, so
		// the separator is the right leaf's minimum.
		sep = r.Keys[0]
	} else {
		sep = n.Keys[mid]
		r.Keys = append(r.Keys, n.Keys[mid+1:]...)
		r.Children = append(r.Children, n.Children[mid+1:]...)
		n.Keys = n.Keys[:mid:mid]
		n.Children = n.Children[: mid+1 : mid+1]
	}
	return added, true, r, sep
}

// Delete removes key; it reports whether the key existed.
func (t *BTree) Delete(key int64) bool {
	n := t.root
	for !n.Leaf {
		n = n.Children[childIndex(n.Keys, key)]
	}
	i := sort.Search(len(n.Keys), func(i int) bool { return n.Keys[i] >= key })
	if i >= len(n.Keys) || n.Keys[i] != key {
		return false
	}
	n.Keys = append(n.Keys[:i], n.Keys[i+1:]...)
	n.RIDs = append(n.RIDs[:i], n.RIDs[i+1:]...)
	t.size--
	return true
}

// Scan calls fn for every key in [lo, hi] in order; fn returning false
// stops the scan.
func (t *BTree) Scan(lo, hi int64, fn func(key int64, rid RID) bool) {
	t.root.scan(lo, hi, fn)
}

func (n *node) scan(lo, hi int64, fn func(int64, RID) bool) bool {
	if n.Leaf {
		i := sort.Search(len(n.Keys), func(i int) bool { return n.Keys[i] >= lo })
		for ; i < len(n.Keys) && n.Keys[i] <= hi; i++ {
			if !fn(n.Keys[i], n.RIDs[i]) {
				return false
			}
		}
		return true
	}
	// First child that can hold keys >= lo: child ci covers
	// [keys[ci-1], keys[ci]), so we need the first keys[ci] > lo.
	start := sort.Search(len(n.Keys), func(i int) bool { return n.Keys[i] > lo })
	for ci := start; ci < len(n.Children); ci++ {
		if ci > 0 && n.Keys[ci-1] > hi {
			break
		}
		if !n.Children[ci].scan(lo, hi, fn) {
			return false
		}
	}
	return true
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

// UnmarshalBTree reverses Marshal.
func UnmarshalBTree(d *apputil.Dec) (*BTree, error) {
	t := &BTree{}
	t.size = d.Int()
	var read func() (*node, error)
	read = func() (*node, error) {
		if d.Err != nil {
			return nil, d.Err
		}
		n := &node{Leaf: d.Bool()}
		k := d.Int()
		if k < 0 || k > btreeOrder+1 {
			return nil, fmt.Errorf("postgres: implausible node size %d", k)
		}
		for i := 0; i < k; i++ {
			n.Keys = append(n.Keys, d.I64())
		}
		if n.Leaf {
			for i := 0; i < k; i++ {
				n.RIDs = append(n.RIDs, RID{Page: uint32(d.I64()), Slot: uint16(d.I64())})
			}
			return n, d.Err
		}
		for i := 0; i <= k; i++ {
			c, err := read()
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
		}
		return n, d.Err
	}
	root, err := read()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, d.Err
}
