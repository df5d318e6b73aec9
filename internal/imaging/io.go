package imaging

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
	"path/filepath"

	"roadtrojan/internal/tensor"
)

// ToImage converts a CHW tensor (1 or 3 channels, values in [0,1], clamped)
// to an NRGBA image.
func ToImage(t *tensor.Tensor) *image.NRGBA {
	c, h, w := t.Dim(0), t.Dim(1), t.Dim(2)
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	n := h * w
	px := func(v float64) uint8 {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return uint8(v*255 + 0.5)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			var r, g, b uint8
			if c >= 3 {
				r = px(t.Data()[i])
				g = px(t.Data()[n+i])
				b = px(t.Data()[2*n+i])
			} else {
				r = px(t.Data()[i])
				g, b = r, r
			}
			img.SetNRGBA(x, y, color.NRGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return img
}

// SavePNG writes a CHW tensor to a PNG file, creating parent directories.
func SavePNG(path string, t *tensor.Tensor) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("save png: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save png: %w", err)
	}
	if err := png.Encode(f, ToImage(t)); err != nil {
		f.Close()
		return fmt.Errorf("save png %q: %w", path, err)
	}
	return f.Close()
}

// DrawRect draws an axis-aligned rectangle outline on a CHW tensor in the
// given color (for visualizing detections in figure outputs).
func DrawRect(t *tensor.Tensor, x0, y0, x1, y1 int, col [3]float64) {
	c, h, w := t.Dim(0), t.Dim(1), t.Dim(2)
	n := h * w
	clampI := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	x0, x1 = clampI(x0, 0, w-1), clampI(x1, 0, w-1)
	y0, y1 = clampI(y0, 0, h-1), clampI(y1, 0, h-1)
	set := func(x, y int) {
		for ch := 0; ch < c && ch < 3; ch++ {
			t.Data()[ch*n+y*w+x] = col[ch]
		}
	}
	for x := x0; x <= x1; x++ {
		set(x, y0)
		set(x, y1)
	}
	for y := y0; y <= y1; y++ {
		set(x0, y)
		set(x1, y)
	}
}

// TileHorizontal lays out same-height CHW images side by side with a small
// white gutter — used for figure strips (Figs. 6–8).
func TileHorizontal(images []*tensor.Tensor, gutter int) *tensor.Tensor {
	if len(images) == 0 {
		return tensor.Ones(3, 1, 1)
	}
	h := images[0].Dim(1)
	total := 0
	for _, im := range images {
		if im.Dim(1) != h {
			panic("imaging: TileHorizontal requires equal heights")
		}
		total += im.Dim(2)
	}
	total += gutter * (len(images) - 1)
	out := tensor.Ones(3, h, total)
	n := h * total
	xoff := 0
	for _, im := range images {
		c, iw := im.Dim(0), im.Dim(2)
		in := h * iw
		for y := 0; y < h; y++ {
			for x := 0; x < iw; x++ {
				for ch := 0; ch < 3; ch++ {
					src := ch
					if c == 1 {
						src = 0
					}
					out.Data()[ch*n+y*total+xoff+x] = im.Data()[src*in+y*iw+x]
				}
			}
		}
		xoff += iw + gutter
	}
	return out
}
