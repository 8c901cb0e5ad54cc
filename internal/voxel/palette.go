package voxel

// RGB is a 24-bit color.
type RGB struct {
	R, G, B uint8
}

// paletteSize keeps palettes small and consistent: "a limited color
// palette" is part of the paper's recipe for letting a broad audience
// produce assets in a consistent artistic style.
const paletteSize = 16

// Palette maps voxel indices 1..15 to colors (index 0 is Empty and
// unused). Being an array, Palette is comparable and copies by
// value.
type Palette [paletteSize]RGB

// Named palette slots used by the warehouse assets.
const (
	_             = iota // index 0 is Empty
	PaintWood     = 1    // pallet default material
	PaintCardb    = 2    // cardboard box body
	PaintTape     = 3    // box tape stripe
	PaintFloor    = 4    // warehouse floor
	PaintFloorAlt = 5    // floor checker accent
	PaintGrey     = 6    // pallet grey material (color code 0)
	PaintBlue     = 7    // pallet blue material (color code 1)
	PaintRed      = 8    // pallet red material (color code 2)
	PaintGreen    = 9    // label/accent green; extended color code 3
	PaintBlack    = 10   // unknown-color fallback material
	PaintWhite    = 11   // label text
	PaintSteel    = 12   // shelving / wall steel
	PaintYellow   = 13   // extended color code 4
	PaintPurple   = 14   // extended color code 5
)

// DefaultPalette returns the warehouse palette.
func DefaultPalette() Palette {
	var p Palette
	p[PaintWood] = RGB{R: 0xb0, G: 0x7a, B: 0x3c}
	p[PaintCardb] = RGB{R: 0xc9, G: 0xa1, B: 0x66}
	p[PaintTape] = RGB{R: 0x8a, G: 0x6d, B: 0x3b}
	p[PaintFloor] = RGB{R: 0x9a, G: 0x9a, B: 0x9a}
	p[PaintFloorAlt] = RGB{R: 0x84, G: 0x84, B: 0x84}
	p[PaintGrey] = RGB{R: 0x7d, G: 0x7d, B: 0x7d}
	p[PaintBlue] = RGB{R: 0x2b, G: 0x5f, B: 0xd9}
	p[PaintRed] = RGB{R: 0xd9, G: 0x2b, B: 0x2b}
	p[PaintGreen] = RGB{R: 0x2b, G: 0xa8, B: 0x4a}
	p[PaintBlack] = RGB{R: 0x18, G: 0x18, B: 0x18}
	p[PaintWhite] = RGB{R: 0xf2, G: 0xf2, B: 0xf2}
	p[PaintSteel] = RGB{R: 0x5c, G: 0x6b, B: 0x73}
	p[PaintYellow] = RGB{R: 0xd9, G: 0xc1, B: 0x2b}
	p[PaintPurple] = RGB{R: 0x8e, G: 0x2b, B: 0xd9}
	return p
}

// MaterialForColorCode maps a module color code to the pallet
// material palette index: the paper's grey/blue/red (0–2) plus the
// extended green/yellow/purple range (3–5) from its "expanding the
// range of colors and materials" future-work item, with the game's
// black fallback for anything else — the Go port of the paper's
// change_pallet_color match statement, extended.
func MaterialForColorCode(code int) uint8 {
	switch code {
	case 0:
		return PaintGrey
	case 1:
		return PaintBlue
	case 2:
		return PaintRed
	case 3:
		return PaintGreen
	case 4:
		return PaintYellow
	case 5:
		return PaintPurple
	default:
		return PaintBlack
	}
}
