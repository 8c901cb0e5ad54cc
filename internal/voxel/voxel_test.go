package voxel

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestModelSetAtClear(t *testing.T) {
	m := New(3, 4, 5)
	if w, h, d := m.Size(); w != 3 || h != 4 || d != 5 {
		t.Fatalf("size %dx%dx%d", w, h, d)
	}
	m.Set(1, 2, 3, PaintRed)
	if m.At(1, 2, 3) != PaintRed {
		t.Error("Set/At wrong")
	}
}

func TestModelAtOutOfBoundsIsEmpty(t *testing.T) {
	m := New(2, 2, 2)
	if m.At(-1, 0, 0) != Empty || m.At(0, 5, 0) != Empty {
		t.Error("out-of-bounds At should read Empty")
	}
}

func TestModelSetOutOfBoundsPanics(t *testing.T) {
	m := New(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Set(2, 0, 0, 1)
}

func TestFillAndCount(t *testing.T) {
	m := New(4, 4, 4)
	m.Fill(0, 0, 0, 1, 1, 1, PaintWood)
	if m.Count() != 8 {
		t.Errorf("Count = %d, want 8", m.Count())
	}
}

func TestCloneEqualRepaint(t *testing.T) {
	m := New(2, 2, 2)
	m.Set(0, 0, 0, PaintBlue)
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone differs")
	}
	c.Set(0, 0, 0, PaintRed)
	if m.Equal(c) || m.At(0, 0, 0) != PaintBlue {
		t.Error("clone aliases its source")
	}
}

func TestBounds(t *testing.T) {
	m := New(5, 5, 5)
	if _, _, _, _, _, _, ok := m.Bounds(); ok {
		t.Error("empty model reported bounds")
	}
	m.Set(1, 2, 3, 1)
	m.Set(3, 2, 1, 1)
	minX, minY, minZ, maxX, maxY, maxZ, ok := m.Bounds()
	if !ok || minX != 1 || minY != 2 || minZ != 1 || maxX != 3 || maxY != 2 || maxZ != 3 {
		t.Errorf("bounds = %d,%d,%d..%d,%d,%d", minX, minY, minZ, maxX, maxY, maxZ)
	}
}

func TestMaterialForColorCode(t *testing.T) {
	cases := map[int]uint8{0: PaintGrey, 1: PaintBlue, 2: PaintRed, 7: PaintBlack, -1: PaintBlack}
	for code, want := range cases {
		if got := MaterialForColorCode(code); got != want {
			t.Errorf("MaterialForColorCode(%d) = %d, want %d", code, got, want)
		}
	}
}

func TestAssetsNonEmpty(t *testing.T) {
	for name, m := range BuiltinAssets() {
		if m.Count() == 0 {
			t.Errorf("asset %q is empty", name)
		}
	}
}

func TestPalletUsesMaterial(t *testing.T) {
	p := Pallet(PaintRed)
	seen := map[uint8]bool{}
	w, h, d := p.Size()
	for y := 0; y < h; y++ {
		for z := 0; z < d; z++ {
			for x := 0; x < w; x++ {
				if c := p.At(x, y, z); c != Empty {
					seen[c] = true
				}
			}
		}
	}
	if len(seen) != 1 || !seen[PaintRed] {
		t.Errorf("pallet colors = %v, want only red", seen)
	}
}

// TestMeshAreasEqual: naive and greedy meshes cover the same face
// area — greedy merging must not create or lose surface.
func TestMeshAreasEqual(t *testing.T) {
	for name, m := range BuiltinAssets() {
		naive := NaiveMesh(m)
		greedy := GreedyMesh(m)
		if naive.Area() != greedy.Area() {
			t.Errorf("%s: naive area %d != greedy area %d", name, naive.Area(), greedy.Area())
		}
		if len(greedy.Quads) > len(naive.Quads) {
			t.Errorf("%s: greedy produced more quads (%d) than naive (%d)", name, len(greedy.Quads), len(naive.Quads))
		}
	}
}

func TestGreedyMergesSolidBlock(t *testing.T) {
	m := New(4, 4, 4)
	m.Fill(0, 0, 0, 3, 3, 3, PaintWood)
	greedy := GreedyMesh(m)
	// A solid single-color cube merges to exactly 6 quads.
	if len(greedy.Quads) != 6 {
		t.Errorf("solid cube greedy quads = %d, want 6", len(greedy.Quads))
	}
	naive := NaiveMesh(m)
	// 6 faces × 16 unit quads.
	if len(naive.Quads) != 96 {
		t.Errorf("solid cube naive quads = %d, want 96", len(naive.Quads))
	}
}

func TestMeshCullsInteriorFaces(t *testing.T) {
	m := New(2, 1, 1)
	m.Set(0, 0, 0, PaintWood)
	m.Set(1, 0, 0, PaintWood)
	naive := NaiveMesh(m)
	// Two cubes sharing a face: 12 - 2 hidden = 10 faces.
	if len(naive.Quads) != 10 {
		t.Errorf("quads = %d, want 10", len(naive.Quads))
	}
}

// TestGreedyMeshAreaRandomProperty compares areas on random models.
func TestGreedyMeshAreaRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		m := New(4, 4, 4)
		for k := 0; k < 20; k++ {
			m.Set(rng.Intn(4), rng.Intn(4), rng.Intn(4), uint8(1+rng.Intn(5)))
		}
		if NaiveMesh(m).Area() != GreedyMesh(m).Area() {
			t.Fatalf("trial %d: area mismatch", trial)
		}
	}
}

func TestOBJExportStructure(t *testing.T) {
	mesh := GreedyMesh(Box())
	var obj, mtl bytes.Buffer
	if err := WriteOBJ(&obj, mesh, "test box", "materials.mtl"); err != nil {
		t.Fatal(err)
	}
	if err := WriteMTL(&mtl, mesh); err != nil {
		t.Fatal(err)
	}
	text := obj.String()
	for _, want := range []string{"o test_box", "mtllib materials.mtl", "v ", "f ", "usemtl paint"} {
		if !strings.Contains(text, want) {
			t.Errorf("OBJ missing %q", want)
		}
	}
	// Face indices must be in range of emitted vertices.
	vCount := strings.Count(text, "\nv ")
	if strings.HasPrefix(text, "v ") {
		vCount++
	}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "f ") {
			continue
		}
		var a, b, c, d int
		if _, err := fmtSscanf(line, &a, &b, &c, &d); err != nil {
			t.Fatalf("bad face line %q: %v", line, err)
		}
		for _, idx := range []int{a, b, c, d} {
			if idx < 1 || idx > vCount {
				t.Fatalf("face index %d out of range 1..%d", idx, vCount)
			}
		}
	}
	if !strings.Contains(mtl.String(), "Kd ") {
		t.Error("MTL missing diffuse colors")
	}
}

// fmtSscanf isolates the fmt dependency for face parsing.
func fmtSscanf(line string, a, b, c, d *int) (int, error) {
	return sscanf(line, a, b, c, d)
}

func TestAnimation(t *testing.T) {
	anim, err := BoxDropAnimation(5)
	if err != nil {
		t.Fatal(err)
	}
	if anim.Len() != 5 {
		t.Errorf("frames = %d", anim.Len())
	}
	if anim.Duration() <= 0 {
		t.Error("non-positive duration")
	}
	first := anim.FrameAt(0)
	last := anim.FrameAt(anim.Duration() - 0.001)
	if first.Equal(last) {
		t.Error("animation frames identical")
	}
	// The box lands at y=0 on the final frame.
	_, minY, _, _, _, _, ok := last.Bounds()
	if !ok || minY != 0 {
		t.Errorf("final frame minY = %d, want 0", minY)
	}
	// Looping: beyond one duration wraps around.
	if !anim.FrameAt(anim.Duration() * 2).Equal(anim.FrameAt(0)) {
		t.Error("animation does not loop")
	}
	if !anim.FrameAt(-5).Equal(anim.FrameAt(0)) {
		t.Error("negative time should clamp to frame 0")
	}
}

func TestAnimationValidation(t *testing.T) {
	if _, err := NewAnimation("x", 0.1); err == nil {
		t.Error("empty animation accepted")
	}
	if _, err := NewAnimation("x", 0, New(1, 1, 1)); err == nil {
		t.Error("zero frame time accepted")
	}
	if _, err := NewAnimation("x", 0.1, New(1, 1, 1), New(2, 1, 1)); err == nil {
		t.Error("mismatched frame sizes accepted")
	}
	if _, err := BoxDropAnimation(1); err == nil {
		t.Error("single-frame drop accepted")
	}
}
