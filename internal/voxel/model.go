// Package voxel is the MagicaVoxel substitute: LEGO-style voxel
// models with paint-by-voxel coloring, simple palettes, face-culled
// and greedily-merged mesh generation, and Wavefront OBJ/MTL export
// (the interchange format Table II requires).
//
// Models use a right-handed grid: X is width, Y is height (up), and Z
// is depth. Each cell stores a palette index; index 0 is empty.
package voxel

import "fmt"

// Empty is the palette index meaning "no voxel here".
const Empty = 0

// Model is a W×H×D voxel grid of palette indices.
type Model struct {
	w, h, d int
	cells   []uint8
	palette Palette
}

// New returns an empty model of the given dimensions with the
// default palette.
func New(w, h, d int) *Model {
	if w <= 0 || h <= 0 || d <= 0 {
		panic(fmt.Sprintf("voxel: invalid dimensions %dx%dx%d", w, h, d))
	}
	return &Model{w: w, h: h, d: d, cells: make([]uint8, w*h*d), palette: DefaultPalette()}
}

// Size returns the model's width, height, and depth.
func (m *Model) Size() (w, h, d int) { return m.w, m.h, m.d }

// Palette returns the model's palette.
func (m *Model) Palette() Palette { return m.palette }

// InBounds reports whether (x,y,z) is inside the grid.
func (m *Model) InBounds(x, y, z int) bool {
	return x >= 0 && x < m.w && y >= 0 && y < m.h && z >= 0 && z < m.d
}

// index returns the cell offset, panicking out of bounds.
func (m *Model) index(x, y, z int) int {
	if !m.InBounds(x, y, z) {
		panic(fmt.Sprintf("voxel: (%d,%d,%d) out of bounds %dx%dx%d", x, y, z, m.w, m.h, m.d))
	}
	return (y*m.d+z)*m.w + x
}

// At returns the palette index at (x,y,z); Empty outside the grid so
// neighbour checks at the boundary read naturally.
func (m *Model) At(x, y, z int) uint8 {
	if !m.InBounds(x, y, z) {
		return Empty
	}
	return m.cells[m.index(x, y, z)]
}

// Set places a voxel of the given palette index ("place colored
// voxel" in Table II's terms).
func (m *Model) Set(x, y, z int, color uint8) {
	m.cells[m.index(x, y, z)] = color
}

// Fill sets every cell in the inclusive box [x0,x1]×[y0,y1]×[z0,z1].
func (m *Model) Fill(x0, y0, z0, x1, y1, z1 int, color uint8) {
	for y := y0; y <= y1; y++ {
		for z := z0; z <= z1; z++ {
			for x := x0; x <= x1; x++ {
				m.Set(x, y, z, color)
			}
		}
	}
}

// Count returns the number of non-empty voxels.
func (m *Model) Count() int {
	n := 0
	for _, c := range m.cells {
		if c != Empty {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := New(m.w, m.h, m.d)
	copy(c.cells, m.cells)
	c.palette = m.palette
	return c
}

// Equal reports whether two models have identical dimensions, cells,
// and palettes.
func (m *Model) Equal(o *Model) bool {
	if m.w != o.w || m.h != o.h || m.d != o.d || m.palette != o.palette {
		return false
	}
	for i, c := range m.cells {
		if o.cells[i] != c {
			return false
		}
	}
	return true
}

// Bounds returns the tight bounding box of non-empty voxels as
// inclusive minimums and maximums, and ok=false for an all-empty
// model.
func (m *Model) Bounds() (minX, minY, minZ, maxX, maxY, maxZ int, ok bool) {
	minX, minY, minZ = m.w, m.h, m.d
	maxX, maxY, maxZ = -1, -1, -1
	for y := 0; y < m.h; y++ {
		for z := 0; z < m.d; z++ {
			for x := 0; x < m.w; x++ {
				if m.At(x, y, z) == Empty {
					continue
				}
				if x < minX {
					minX = x
				}
				if y < minY {
					minY = y
				}
				if z < minZ {
					minZ = z
				}
				if x > maxX {
					maxX = x
				}
				if y > maxY {
					maxY = y
				}
				if z > maxZ {
					maxZ = z
				}
			}
		}
	}
	return minX, minY, minZ, maxX, maxY, maxZ, maxX >= 0
}
