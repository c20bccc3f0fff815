package treadmarks

import (
	"encoding/binary"
	"math"
)

// Body is one particle of the N-body simulation.
type Body struct {
	X, Y, Z    float64
	VX, VY, VZ float64
	Mass       float64
}

// BodySize is the serialized size of a body in shared memory.
const BodySize = 7 * 8

// EncodeBody writes a body at off in page memory.
func EncodeBody(buf []byte, b Body) {
	fs := [7]float64{b.X, b.Y, b.Z, b.VX, b.VY, b.VZ, b.Mass}
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f))
	}
}

// DecodeBody reads a body from page memory.
func DecodeBody(buf []byte) Body {
	var fs [7]float64
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return Body{fs[0], fs[1], fs[2], fs[3], fs[4], fs[5], fs[6]}
}

// Simulation constants.
const (
	theta   = 0.5  // Barnes-Hut opening criterion
	dt      = 0.05 // integration step
	gravity = 1.0
	soften  = 0.1 // softening length avoids singular forces
)

// octNode is one node of the Barnes-Hut octree.
type octNode struct {
	// Cube center and half-size.
	CX, CY, CZ, Half float64
	// Aggregate mass and center of mass.
	Mass       float64
	MX, MY, MZ float64
	// Leaf body (valid when NBodies == 1 and no children).
	Body    Body
	NBodies int
	Kids    [8]*octNode
}

// octChunk is how many nodes one arena chunk holds.
const octChunk = 64

// Octree is a node arena that builds Barnes-Hut octrees and recycles their
// nodes from one build to the next. Nodes live in fixed-size chunks that
// are never reallocated, so a node pointer stays valid as the arena grows;
// each build rewinds to the first node, so a tree rebuilt every step
// allocates nothing once the chunks cover its size. A build invalidates
// every tree built before it. The zero value is ready.
type Octree struct {
	chunks [][]octNode
	used   int
}

// node returns a fresh node for the cube centred at (cx, cy, cz).
//
//failtrans:hotpath
func (a *Octree) node(cx, cy, cz, half float64) *octNode {
	c := a.used / octChunk
	if c == len(a.chunks) {
		//failtrans:alloc the arena grows a chunk only while the trees it builds outgrow it
		a.chunks = append(a.chunks, make([]octNode, octChunk))
	}
	n := &a.chunks[c][a.used%octChunk]
	a.used++
	*n = octNode{CX: cx, CY: cy, CZ: cz, Half: half}
	return n
}

// Build constructs the octree over the bodies out of the arena's nodes,
// reusing them from the first.
//
//failtrans:hotpath
func (a *Octree) Build(bodies []Body) *octNode {
	if len(bodies) == 0 {
		return nil
	}
	a.used = 0
	// Bounding cube.
	min, max := math.Inf(1), math.Inf(-1)
	for _, b := range bodies {
		for _, v := range [3]float64{b.X, b.Y, b.Z} {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	half := (max-min)/2 + 1e-9
	c := (max + min) / 2
	root := a.node(c, c, c, half)
	for _, b := range bodies {
		root.insert(a, b)
	}
	root.summarize()
	return root
}

// octant returns which child cube the body falls in.
func (n *octNode) octant(b Body) int {
	i := 0
	if b.X >= n.CX {
		i |= 1
	}
	if b.Y >= n.CY {
		i |= 2
	}
	if b.Z >= n.CZ {
		i |= 4
	}
	return i
}

func (n *octNode) childCube(i int) (cx, cy, cz, half float64) {
	half = n.Half / 2
	cx, cy, cz = n.CX-half, n.CY-half, n.CZ-half
	if i&1 != 0 {
		cx = n.CX + half
	}
	if i&2 != 0 {
		cy = n.CY + half
	}
	if i&4 != 0 {
		cz = n.CZ + half
	}
	return
}

func (n *octNode) insert(a *Octree, b Body) {
	if n.NBodies == 0 {
		n.Body = b
		n.NBodies = 1
		return
	}
	if n.NBodies == 1 {
		// Split: push the resident body down (unless the cube has
		// degenerated, then aggregate in place).
		if n.Half < 1e-12 {
			n.Body.Mass += b.Mass
			n.NBodies++
			return
		}
		old := n.Body
		n.pushDown(a, old)
	}
	n.NBodies++
	n.pushDown(a, b)
}

func (n *octNode) pushDown(a *Octree, b Body) {
	i := n.octant(b)
	if n.Kids[i] == nil {
		n.Kids[i] = a.node(n.childCube(i))
	}
	n.Kids[i].insert(a, b)
}

// summarize computes mass and center of mass bottom-up.
func (n *octNode) summarize() {
	if n.isLeaf() {
		n.Mass = n.Body.Mass
		n.MX, n.MY, n.MZ = n.Body.X, n.Body.Y, n.Body.Z
		return
	}
	n.Mass, n.MX, n.MY, n.MZ = 0, 0, 0, 0
	for _, k := range n.Kids {
		if k == nil {
			continue
		}
		k.summarize()
		n.Mass += k.Mass
		n.MX += k.MX * k.Mass
		n.MY += k.MY * k.Mass
		n.MZ += k.MZ * k.Mass
	}
	if n.Mass > 0 {
		n.MX /= n.Mass
		n.MY /= n.Mass
		n.MZ /= n.Mass
	}
}

func (n *octNode) isLeaf() bool {
	for _, k := range n.Kids {
		if k != nil {
			return false
		}
	}
	return true
}

// Force accumulates the gravitational acceleration on body b from the tree
// using the theta opening criterion.
func (n *octNode) Force(b Body) (ax, ay, az float64) {
	if n == nil || n.Mass == 0 {
		return 0, 0, 0
	}
	dx, dy, dz := n.MX-b.X, n.MY-b.Y, n.MZ-b.Z
	d2 := dx*dx + dy*dy + dz*dz + soften*soften
	d := math.Sqrt(d2)
	if n.isLeaf() || (2*n.Half)/d < theta {
		// Treat as a point mass (skip self-interaction).
		if d2 <= soften*soften*1.0000001 && n.isLeaf() {
			return 0, 0, 0
		}
		f := gravity * n.Mass / (d2 * d)
		return f * dx, f * dy, f * dz
	}
	for _, k := range n.Kids {
		if k == nil {
			continue
		}
		kx, ky, kz := k.Force(b)
		ax += kx
		ay += ky
		az += kz
	}
	return ax, ay, az
}

// step advances the subset [lo,hi) of bodies one dt using forces from the
// tree built over all bodies in the arena, appends the updated entries to
// out (which must not overlap all) and returns the extended slice.
//
//failtrans:hotpath
func (a *Octree) step(all []Body, lo, hi int, out []Body) []Body {
	tree := a.Build(all)
	for i := lo; i < hi; i++ {
		b := all[i]
		ax, ay, az := tree.Force(b)
		b.VX += ax * dt
		b.VY += ay * dt
		b.VZ += az * dt
		b.X += b.VX * dt
		b.Y += b.VY * dt
		b.Z += b.VZ * dt
		out = append(out, b)
	}
	return out
}

// InitBodies builds the deterministic initial condition: a Plummer-like
// spiral of n bodies (no randomness, so every process and the sequential
// oracle agree bit-for-bit).
func InitBodies(n int) []Body {
	bodies := make([]Body, n)
	for i := range bodies {
		t := float64(i) * 2.399963229728653 // golden angle
		r := 10 * math.Sqrt(float64(i+1)/float64(n))
		bodies[i] = Body{
			X:    r * math.Cos(t),
			Y:    r * math.Sin(t),
			Z:    2 * math.Sin(3*t),
			VX:   -0.3 * r * math.Sin(t),
			VY:   0.3 * r * math.Cos(t),
			Mass: 1 + 0.001*float64(i%7),
		}
	}
	return bodies
}
