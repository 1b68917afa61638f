package pic

import (
	"math"
	"math/bits"

	"picpredict/internal/geom"
	"picpredict/internal/particle"
)

// collider computes soft-sphere particle–particle collision forces with a
// uniform-grid broad phase. CMT-nek adds collision forces to the fluid
// forces when solving Eq. 2 (§III-A); this is the same model at the fidelity
// the workload study needs: an O(N) neighbour search plus a linear-spring
// normal force.
//
// The broad phase is a cell list rebuilt every call in buffers kept across
// steps, so a steady-state step allocates nothing: each particle's cell,
// the occupied cells in first-seen order, an open-addressing table from
// cell key to cell number, and the particle ids grouped by cell with a
// counting sort (cell c holds ids[start[c]:start[c+1]], ascending).
type collider struct {
	cellSize float64
	keys     []cellKey // cell of each particle
	cellOf   []int32   // cell number of each particle
	cells    []cellKey // occupied cells, in first-seen order
	table    []int32   // cell number + 1 per slot; 0 marks a free slot
	shift    uint      // 64 − log2(len(table)): hash bits kept as the slot
	start    []int32
	ids      []int32
	// scratch accelerations, reused between steps
	acc []geom.Vec3
}

type cellKey struct{ i, j, k int32 }

func newCollider() *collider { return &collider{} }

func (c *collider) key(p geom.Vec3) cellKey {
	return cellKey{
		i: int32(floorDiv(p.X, c.cellSize)),
		j: int32(floorDiv(p.Y, c.cellSize)),
		k: int32(floorDiv(p.Z, c.cellSize)),
	}
}

func floorDiv(x, d float64) int {
	t := x / d
	i := int(t)
	//lint:allow floatcmp exact integrality test: floor correction must fire iff truncation actually rounded
	if t < 0 && float64(i) != t {
		i--
	}
	return i
}

// probe returns the cell number of k, or -1 and the free table slot where
// k belongs. The table is at least twice the particle count, so a free
// slot always ends the linear probe.
func (c *collider) probe(k cellKey) (slot int, cell int32) {
	x := uint64(uint32(k.i)) | uint64(uint32(k.j))<<32
	h := (x ^ uint64(uint32(k.k))*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	mask := len(c.table) - 1
	for s := int(h >> c.shift); ; s = (s + 1) & mask {
		e := c.table[s]
		if e == 0 {
			return s, -1
		}
		if c.cells[e-1] == k {
			return s, e - 1
		}
	}
}

// buildCells groups the particle ids by cell.
func (c *collider) buildCells(pos []geom.Vec3) {
	n := len(pos)
	if cap(c.keys) < n {
		c.keys = make([]cellKey, n)
		c.cellOf = make([]int32, n)
		c.cells = make([]cellKey, 0, n)
		c.start = make([]int32, 0, n+1)
		c.ids = make([]int32, n)
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if len(c.table) != size {
		c.table = make([]int32, size)
		c.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	} else {
		clear(c.table)
	}
	c.cells = c.cells[:0]
	c.start = append(c.start[:0], 0)
	for i, p := range pos {
		k := c.key(p)
		slot, cell := c.probe(k)
		if cell < 0 {
			cell = int32(len(c.cells))
			c.table[slot] = cell + 1
			c.cells = append(c.cells, k)
			c.start = append(c.start, 0)
		}
		c.keys[i], c.cellOf[i] = k, cell
		c.start[cell+1]++
	}
	for j := 1; j < len(c.start); j++ {
		c.start[j] += c.start[j-1]
	}
	// Place ids in ascending order, advancing each cell's start to its
	// end, then shift the ends back into starts.
	for i, cell := range c.cellOf[:n] {
		c.ids[c.start[cell]] = int32(i)
		c.start[cell]++
	}
	copy(c.start[1:], c.start[:len(c.cells)])
	c.start[0] = 0
}

// Forces returns per-particle collision accelerations for set s using a
// linear spring of the given stiffness on pair overlap. The returned slice
// is reused across calls; callers must not retain it.
func (c *collider) Forces(s *particle.Set, stiffness float64) []geom.Vec3 {
	n := s.Len()
	if cap(c.acc) < n {
		c.acc = make([]geom.Vec3, n)
	}
	acc := c.acc[:n]
	for i := range acc {
		acc[i] = geom.Vec3{}
	}
	if n == 0 {
		return acc
	}
	// Broad-phase cell size: largest diameter (pairs farther apart than
	// the sum of radii ≤ 2·maxRadius = maxDiameter cannot touch).
	maxD := 0.0
	for i := 0; i < n; i++ {
		if s.Diameter[i] > maxD {
			maxD = s.Diameter[i]
		}
	}
	if maxD <= 0 {
		return acc
	}
	c.cellSize = maxD
	c.buildCells(s.Pos[:n])
	// Narrow phase: visit each particle's 27-cell neighbourhood, applying
	// each pair once (i < j).
	for i := 0; i < n; i++ {
		ki := c.keys[i]
		for dk := int32(-1); dk <= 1; dk++ {
			for dj := int32(-1); dj <= 1; dj++ {
				for di := int32(-1); di <= 1; di++ {
					_, cell := c.probe(cellKey{ki.i + di, ki.j + dj, ki.k + dk})
					if cell < 0 {
						continue
					}
					for _, j := range c.ids[c.start[cell]:c.start[cell+1]] {
						if int(j) <= i {
							continue
						}
						c.pair(s, i, int(j), stiffness, acc)
					}
				}
			}
		}
	}
	return acc
}

// pair applies the spring force between particles i and j if they overlap.
func (c *collider) pair(s *particle.Set, i, j int, stiffness float64, acc []geom.Vec3) {
	d := s.Pos[j].Sub(s.Pos[i])
	dist2 := d.Norm2()
	touch := (s.Diameter[i] + s.Diameter[j]) / 2
	if dist2 >= touch*touch || dist2 == 0 {
		return
	}
	dist := math.Sqrt(dist2)
	overlap := touch - dist
	dir := d.Scale(1 / dist)
	f := dir.Scale(stiffness * overlap) // force magnitude, Newton-wise
	// Equal and opposite; convert to acceleration by each particle's mass.
	acc[i] = acc[i].Sub(f.Scale(1 / s.Mass(i)))
	acc[j] = acc[j].Add(f.Scale(1 / s.Mass(j)))
}
