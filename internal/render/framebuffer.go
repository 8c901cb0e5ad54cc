// Package render is the software renderer standing in for Godot's
// viewport: a character framebuffer with ANSI-terminal, plain-text,
// and PPM-image backends, a top-down 2D traffic-matrix view, and an
// isometric 3D projection of the voxel warehouse with the four Q/E
// rotations. Every figure in the paper is a screenshot of one of
// these views.
package render

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/term"
	"repro/internal/voxel"
)

// Cell is one character cell: a rune plus optional foreground and
// background colors in full RGB (quantized to 16 colors for ANSI
// output, kept exact for PPM output).
type Cell struct {
	// Ch is the glyph; zero renders as space.
	Ch rune
	// FG and BG are the colors; valid only when HasFG/HasBG.
	FG, BG voxel.RGB
	// HasFG and HasBG mark whether the colors are set.
	HasFG, HasBG bool
	// Bold marks emphasized text.
	Bold bool
}

// Framebuffer is a W×H grid of cells with (0,0) at the top left.
type Framebuffer struct {
	w, h  int
	cells []Cell
}

// NewFramebuffer returns a cleared framebuffer.
func NewFramebuffer(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid framebuffer size %dx%d", w, h))
	}
	return &Framebuffer{w: w, h: h, cells: make([]Cell, w*h)}
}

// Size returns the width and height.
func (f *Framebuffer) Size() (w, h int) { return f.w, f.h }

// InBounds reports whether (x,y) is inside the framebuffer.
func (f *Framebuffer) InBounds(x, y int) bool {
	return x >= 0 && x < f.w && y >= 0 && y < f.h
}

// Set writes a cell; writes outside the framebuffer are clipped.
func (f *Framebuffer) Set(x, y int, c Cell) {
	if !f.InBounds(x, y) {
		return
	}
	f.cells[y*f.w+x] = c
}

// At returns the cell at (x,y); a zero Cell outside the bounds.
func (f *Framebuffer) At(x, y int) Cell {
	if !f.InBounds(x, y) {
		return Cell{}
	}
	return f.cells[y*f.w+x]
}

// DrawText writes a string starting at (x,y) with the given colors,
// clipping at the right edge.
func (f *Framebuffer) DrawText(x, y int, s string, fg voxel.RGB, hasFG, bold bool) {
	for i, r := range []rune(s) {
		cell := f.At(x+i, y)
		cell.Ch = r
		cell.FG = fg
		cell.HasFG = hasFG
		cell.Bold = bold
		f.Set(x+i, y, cell)
	}
}

// Text renders the framebuffer as plain text lines, trimming
// trailing spaces on each line.
func (f *Framebuffer) Text() string {
	var b strings.Builder
	for y := 0; y < f.h; y++ {
		line := make([]rune, f.w)
		for x := 0; x < f.w; x++ {
			ch := f.cells[y*f.w+x].Ch
			if ch == 0 {
				ch = ' '
			}
			line[x] = ch
		}
		b.WriteString(strings.TrimRight(string(line), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// ANSI renders the framebuffer with 16-color escape sequences
// (subject to term.SetEnabled).
func (f *Framebuffer) ANSI() string {
	var b strings.Builder
	for y := 0; y < f.h; y++ {
		for x := 0; x < f.w; x++ {
			cell := f.cells[y*f.w+x]
			ch := cell.Ch
			if ch == 0 {
				ch = ' '
			}
			style := term.Style{Bold: cell.Bold}
			if cell.HasFG {
				style.FG = QuantizeANSI(cell.FG)
			}
			if cell.HasBG {
				style.BG = QuantizeANSI(cell.BG)
			}
			b.WriteString(style.Apply(string(ch)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WritePPM writes the framebuffer as a binary PPM (P6) image, the
// repo's screenshot format: each cell becomes a cellW×cellH pixel
// block of its background color (foreground color when only a glyph
// is present; dark grey otherwise).
func (f *Framebuffer) WritePPM(w io.Writer, cellW, cellH int) error {
	if cellW < 1 || cellH < 1 {
		return fmt.Errorf("render: invalid PPM cell size %dx%d", cellW, cellH)
	}
	imgW, imgH := f.w*cellW, f.h*cellH
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", imgW, imgH); err != nil {
		return err
	}
	background := voxel.RGB{R: 0x20, G: 0x20, B: 0x24}
	row := make([]byte, imgW*3)
	for cy := 0; cy < f.h; cy++ {
		for py := 0; py < cellH; py++ {
			for cx := 0; cx < f.w; cx++ {
				cell := f.cells[cy*f.w+cx]
				rgb := background
				switch {
				case cell.HasBG:
					rgb = cell.BG
				case cell.HasFG && cell.Ch != 0 && cell.Ch != ' ':
					rgb = cell.FG
				}
				for px := 0; px < cellW; px++ {
					o := (cx*cellW + px) * 3
					row[o], row[o+1], row[o+2] = rgb.R, rgb.G, rgb.B
				}
			}
			if _, err := w.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// ansiPalette approximates the 16 ANSI colors for quantization.
var ansiPalette = []struct {
	color term.Color
	rgb   voxel.RGB
}{
	{term.Black, voxel.RGB{R: 0x00, G: 0x00, B: 0x00}},
	{term.Red, voxel.RGB{R: 0xaa, G: 0x00, B: 0x00}},
	{term.Green, voxel.RGB{R: 0x00, G: 0xaa, B: 0x00}},
	{term.Yellow, voxel.RGB{R: 0xaa, G: 0x55, B: 0x00}},
	{term.Blue, voxel.RGB{R: 0x00, G: 0x00, B: 0xaa}},
	{term.Magenta, voxel.RGB{R: 0xaa, G: 0x00, B: 0xaa}},
	{term.Cyan, voxel.RGB{R: 0x00, G: 0xaa, B: 0xaa}},
	{term.White, voxel.RGB{R: 0xaa, G: 0xaa, B: 0xaa}},
	{term.BrightBlack, voxel.RGB{R: 0x55, G: 0x55, B: 0x55}},
	{term.BrightRed, voxel.RGB{R: 0xff, G: 0x55, B: 0x55}},
	{term.BrightGreen, voxel.RGB{R: 0x55, G: 0xff, B: 0x55}},
	{term.BrightYellow, voxel.RGB{R: 0xff, G: 0xff, B: 0x55}},
	{term.BrightBlue, voxel.RGB{R: 0x55, G: 0x55, B: 0xff}},
	{term.BrightMagenta, voxel.RGB{R: 0xff, G: 0x55, B: 0xff}},
	{term.BrightCyan, voxel.RGB{R: 0x55, G: 0xff, B: 0xff}},
	{term.BrightWhite, voxel.RGB{R: 0xff, G: 0xff, B: 0xff}},
}

// QuantizeANSI maps an RGB color to the nearest of the 16 ANSI
// colors by squared distance.
func QuantizeANSI(c voxel.RGB) term.Color {
	best, bestDist := term.Default, 1<<62
	for _, entry := range ansiPalette {
		dr := int(c.R) - int(entry.rgb.R)
		dg := int(c.G) - int(entry.rgb.G)
		db := int(c.B) - int(entry.rgb.B)
		dist := dr*dr + dg*dg + db*db
		if dist < bestDist {
			best, bestDist = entry.color, dist
		}
	}
	return best
}
