package render

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/term"
	"repro/internal/voxel"
)

func plainText(t *testing.T) {
	t.Helper()
	prev := term.SetEnabled(true)
	t.Cleanup(func() { term.SetEnabled(prev) })
}

func TestFramebufferSetAtClip(t *testing.T) {
	fb := NewFramebuffer(4, 3)
	fb.Set(1, 1, Cell{Ch: 'x'})
	if fb.At(1, 1).Ch != 'x' {
		t.Error("Set/At wrong")
	}
	// Out-of-bounds writes clip silently; reads return zero.
	fb.Set(-1, 0, Cell{Ch: 'y'})
	fb.Set(9, 9, Cell{Ch: 'y'})
	if fb.At(-1, 0).Ch != 0 || fb.At(9, 9).Ch != 0 {
		t.Error("clip failed")
	}
}

func TestFramebufferText(t *testing.T) {
	fb := NewFramebuffer(5, 2)
	fb.DrawText(0, 0, "ab", voxel.RGB{}, false, false)
	fb.DrawText(2, 1, "cd", voxel.RGB{}, false, false)
	got := fb.Text()
	want := "ab\n  cd\n"
	if got != want {
		t.Errorf("Text = %q, want %q", got, want)
	}
}

func TestFramebufferDrawTextClips(t *testing.T) {
	fb := NewFramebuffer(3, 1)
	fb.DrawText(1, 0, "long text", voxel.RGB{}, false, false)
	if got := fb.Text(); got != " lo\n" {
		t.Errorf("clipped text = %q", got)
	}
}

func TestANSIContainsCodes(t *testing.T) {
	plainText(t)
	fb := NewFramebuffer(2, 1)
	fb.Set(0, 0, Cell{Ch: 'x', FG: voxel.RGB{R: 255}, HasFG: true})
	out := fb.ANSI()
	if !strings.Contains(out, "\x1b[") {
		t.Errorf("no escape codes in ANSI output: %q", out)
	}
	if term.Strip(out) != "x \n" {
		t.Errorf("ANSI content = %q", term.Strip(out))
	}
}

func TestWritePPM(t *testing.T) {
	fb := NewFramebuffer(2, 2)
	fb.Set(0, 0, Cell{Ch: '█', BG: voxel.RGB{R: 1, G: 2, B: 3}, HasBG: true})
	var buf bytes.Buffer
	if err := fb.WritePPM(&buf, 2, 3); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("P6\n4 6\n255\n")) {
		t.Errorf("PPM header wrong: %q", data[:20])
	}
	// Header + 4*6 pixels × 3 bytes.
	wantLen := len("P6\n4 6\n255\n") + 4*6*3
	if len(data) != wantLen {
		t.Errorf("PPM size = %d, want %d", len(data), wantLen)
	}
	// First pixel carries the BG color.
	px := data[len("P6\n4 6\n255\n"):]
	if px[0] != 1 || px[1] != 2 || px[2] != 3 {
		t.Errorf("first pixel = %v", px[:3])
	}
	if err := fb.WritePPM(&buf, 0, 1); err == nil {
		t.Error("zero cell size accepted")
	}
}

func TestQuantizeANSI(t *testing.T) {
	cases := map[voxel.RGB]term.Color{
		{R: 0, G: 0, B: 0}:       term.Black,
		{R: 255, G: 255, B: 255}: term.BrightWhite,
		{R: 170, G: 0, B: 0}:     term.Red,
		{R: 80, G: 80, B: 255}:   term.BrightBlue,
	}
	for rgb, want := range cases {
		if got := QuantizeANSI(rgb); got != want {
			t.Errorf("Quantize(%v) = %v, want %v", rgb, got, want)
		}
	}
}

func sampleMatrix() *matrix.Dense {
	return matrix.MustFromRows([][]int{
		{1, 0, 2},
		{0, 3, 0},
		{1, 0, 1},
	})
}

func TestMatrix2DContent(t *testing.T) {
	fb, err := Matrix2D(sampleMatrix(), Matrix2DOptions{
		Labels: []string{"AA", "BB", "CC"},
		Title:  "Test",
	})
	if err != nil {
		t.Fatal(err)
	}
	text := fb.Text()
	for _, want := range []string{"Test", "AA", "BB", "CC", "3", "2"} {
		if !strings.Contains(text, want) {
			t.Errorf("2D view missing %q:\n%s", want, text)
		}
	}
	// Zeros render as dots by default.
	if !strings.Contains(text, ".") {
		t.Error("zero cells not dotted")
	}
}

func TestMatrix2DShowZero(t *testing.T) {
	fb, err := Matrix2D(sampleMatrix(), Matrix2DOptions{ShowZero: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fb.Text(), ".") {
		t.Error("ShowZero still dotted")
	}
}

func TestMatrix2DPlacedForm(t *testing.T) {
	placed := matrix.NewSquare(3)
	placed.Set(0, 2, 1)
	fb, err := Matrix2D(sampleMatrix(), Matrix2DOptions{Placed: placed})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fb.Text(), "1/2") {
		t.Errorf("placed/target form missing:\n%s", fb.Text())
	}
}

func TestMatrix2DCursorMarked(t *testing.T) {
	fb, err := Matrix2D(sampleMatrix(), Matrix2DOptions{
		CursorRow: 1, CursorCol: 1, HasCursor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fb.Text(), "[3]") {
		t.Errorf("cursor not marked:\n%s", fb.Text())
	}
}

func TestMatrix2DColorsPaintBackground(t *testing.T) {
	colors := matrix.MustFromRows([][]int{
		{0, 0, 2},
		{0, 1, 0},
		{0, 0, 0},
	})
	fb, err := Matrix2D(sampleMatrix(), Matrix2DOptions{Colors: colors, ShowColors: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find a cell with red background.
	w, h := fb.Size()
	foundRed, foundBlue := false, false
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := fb.At(x, y)
			if c.HasBG && c.BG == DefaultPaletteRGB(voxel.PaintRed) {
				foundRed = true
			}
			if c.HasBG && c.BG == DefaultPaletteRGB(voxel.PaintBlue) {
				foundBlue = true
			}
		}
	}
	if !foundRed || !foundBlue {
		t.Errorf("color overlay missing: red=%v blue=%v", foundRed, foundBlue)
	}
}

func TestMatrix2DValidation(t *testing.T) {
	if _, err := Matrix2D(matrix.NewDense(2, 3), Matrix2DOptions{}); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := Matrix2D(sampleMatrix(), Matrix2DOptions{Labels: []string{"A"}}); err == nil {
		t.Error("label count mismatch accepted")
	}
	if _, err := Matrix2D(sampleMatrix(), Matrix2DOptions{Colors: matrix.NewSquare(2)}); err == nil {
		t.Error("color shape mismatch accepted")
	}
	if _, err := Matrix2D(sampleMatrix(), Matrix2DOptions{Placed: matrix.NewSquare(2)}); err == nil {
		t.Error("placed shape mismatch accepted")
	}
}

func TestRotationAlgebra(t *testing.T) {
	r := Rotation(0)
	if r.Left() != 3 || r.Right() != 1 {
		t.Errorf("Left/Right = %v/%v", r.Left(), r.Right())
	}
	if Rotation(-1).Normalize() != 3 || Rotation(7).Normalize() != 3 {
		t.Error("Normalize wrong")
	}
	if Rotation(2).String() != "180°" {
		t.Errorf("String = %q", Rotation(2).String())
	}
	// Four rights return home.
	r = 0
	for i := 0; i < 4; i++ {
		r = r.Right()
	}
	if r != 0 {
		t.Error("4 right turns did not return to 0")
	}
}

func TestRotationDisplayInverse(t *testing.T) {
	n := 5
	for rot := Rotation(0); rot < 4; rot++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dr, dc := rot.display(i, j, n)
				bi, bj := invertDisplay(rot, dr, dc, n)
				if bi != i || bj != j {
					t.Fatalf("rot %v: (%d,%d) → (%d,%d) → (%d,%d)", rot, i, j, dr, dc, bi, bj)
				}
			}
		}
	}
}

// lowMatrix has stacks of height ≤ 2, which geometry guarantees can
// never occlude each other in the iso projection.
func lowMatrix() *matrix.Dense {
	return matrix.MustFromRows([][]int{
		{1, 0, 2},
		{0, 2, 0},
		{1, 0, 1},
	})
}

func TestIso3DStacksMatchCounts(t *testing.T) {
	m := lowMatrix()
	fb, err := Iso3D(m, Iso3DOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text := fb.Text()
	// Each box renders "[]": with no occlusion possible, the
	// bracket count equals the packet count.
	if got := strings.Count(text, "[]"); got != m.Sum() {
		t.Errorf("3D view shows %d boxes, want %d:\n%s", got, m.Sum(), text)
	}
}

// TestIso3DOcclusion: a tall front stack genuinely hides a short
// stack directly behind it — the painter's algorithm at work.
func TestIso3DOcclusion(t *testing.T) {
	m := sampleMatrix() // (1,1) holds 3 boxes in front of (0,0)'s 1
	fb, err := Iso3D(m, Iso3DOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(fb.Text(), "[]"); got != m.Sum()-1 {
		t.Errorf("expected exactly one occluded box: visible %d of %d", got, m.Sum())
	}
}

func TestIso3DPlacedPartial(t *testing.T) {
	m := sampleMatrix()
	placed := matrix.NewSquare(3)
	placed.Set(1, 1, 2)
	fb, err := Iso3D(m, Iso3DOptions{Placed: placed})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(fb.Text(), "[]"); got != 2 {
		t.Errorf("partial view shows %d boxes, want 2", got)
	}
}

func TestIso3DRotationsPreserveBoxes(t *testing.T) {
	m := lowMatrix()
	for rot := Rotation(0); rot < 4; rot++ {
		fb, err := Iso3D(m, Iso3DOptions{Rotation: rot})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(fb.Text(), "[]"); got != m.Sum() {
			t.Errorf("rotation %v shows %d boxes, want %d", rot, got, m.Sum())
		}
	}
}

func TestIso3DRotationChangesLayout(t *testing.T) {
	m := matrix.NewSquare(3)
	m.Set(0, 0, 3) // one tall corner stack makes rotations distinct
	a, _ := Iso3D(m, Iso3DOptions{Rotation: 0, Labels: []string{"A", "B", "C"}})
	b, _ := Iso3D(m, Iso3DOptions{Rotation: 1, Labels: []string{"A", "B", "C"}})
	if a.Text() == b.Text() {
		t.Error("rotation did not change the view")
	}
}

func TestIso3DLabelsShown(t *testing.T) {
	fb, err := Iso3D(sampleMatrix(), Iso3DOptions{Labels: []string{"AA", "BB", "CC"}})
	if err != nil {
		t.Fatal(err)
	}
	text := fb.Text()
	for _, l := range []string{"AA", "BB", "CC"} {
		if !strings.Contains(text, l) {
			t.Errorf("3D view missing label %q:\n%s", l, text)
		}
	}
}

func TestIso3DValidation(t *testing.T) {
	if _, err := Iso3D(matrix.NewDense(2, 3), Iso3DOptions{}); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := Iso3D(sampleMatrix(), Iso3DOptions{Labels: []string{"A"}}); err == nil {
		t.Error("label mismatch accepted")
	}
}

func TestComposeWarehouseGeometry(t *testing.T) {
	m := sampleMatrix()
	scene, err := ComposeWarehouse(m, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	w, h, d := scene.Size()
	if w != 3*cellPitch || d != 3*cellPitch {
		t.Errorf("scene footprint %dx%d", w, d)
	}
	if h < 1+3+m.Max()*voxel.BoxSize {
		t.Errorf("scene height %d too small", h)
	}
	// Scene contains floor + pallets + boxes: count must exceed a
	// floor-and-pallets-only scene.
	empty, err := ComposeWarehouse(matrix.NewSquare(3), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if scene.Count() <= empty.Count() {
		t.Error("boxes not present in composed scene")
	}
	boxVoxels := voxel.Box().Count()
	if scene.Count() != empty.Count()+m.Sum()*boxVoxels {
		t.Errorf("scene voxels = %d, want %d", scene.Count(), empty.Count()+m.Sum()*boxVoxels)
	}
}

func TestComposeWarehouseColors(t *testing.T) {
	m := sampleMatrix()
	colors := matrix.NewSquare(3)
	colors.Fill(2)
	scene, err := ComposeWarehouse(m, colors, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// With showColors, pallet voxels take the red material.
	found := false
	w, h, d := scene.Size()
	for y := 0; y < h && !found; y++ {
		for z := 0; z < d && !found; z++ {
			for x := 0; x < w && !found; x++ {
				if scene.At(x, y, z) == voxel.PaintRed {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no red pallet voxels in colored scene")
	}
}

func TestVoxelIsoDeterministicAndRotates(t *testing.T) {
	scene, err := ComposeWarehouse(sampleMatrix(), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	a := VoxelIso(scene, 0).Text()
	b := VoxelIso(scene, 0).Text()
	if a != b {
		t.Error("VoxelIso not deterministic")
	}
	c := VoxelIso(scene, 1).Text()
	if a == c {
		t.Error("rotation 1 identical to rotation 0")
	}
	if len(strings.TrimSpace(a)) == 0 {
		t.Error("VoxelIso produced empty output")
	}
}
