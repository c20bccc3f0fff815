package treadmarks

import "math"

// TotalEnergy returns kinetic + potential energy (O(n²); for conservation
// sanity checks).
func TotalEnergy(bodies []Body) float64 {
	e := 0.0
	for i, b := range bodies {
		e += 0.5 * b.Mass * (b.VX*b.VX + b.VY*b.VY + b.VZ*b.VZ)
		for j := i + 1; j < len(bodies); j++ {
			o := bodies[j]
			dx, dy, dz := o.X-b.X, o.Y-b.Y, o.Z-b.Z
			d := math.Sqrt(dx*dx + dy*dy + dz*dz + soften*soften)
			e -= gravity * b.Mass * o.Mass / d
		}
	}
	return e
}

// Count returns the number of bodies in the subtree.
func (n *octNode) Count() int {
	if n == nil {
		return 0
	}
	if n.isLeaf() {
		return n.NBodies
	}
	c := 0
	for _, k := range n.Kids {
		c += k.Count()
	}
	return c
}
