// Package eot implements Expectation Over Transformation (Athalye et al.),
// the robustness technique the paper applies while training adversarial
// patches. It provides the paper's five tricks — (1) resize, (2) rotation,
// (3) brightness, (4) gamma, (5) perspective — as differentiable image
// stages, a sampler A(·) that draws a random transform chain, and the trick
// subsets ablated in Table IV.
package eot

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"roadtrojan/internal/imaging"
	"roadtrojan/internal/tensor"
)

// Trick identifies one of the five EOT techniques, numbered as in the paper.
type Trick int

// The paper's five tricks.
const (
	Resize Trick = iota + 1
	Rotation
	Brightness
	Gamma
	Perspective
)

// String returns the trick's paper name.
func (t Trick) String() string {
	switch t {
	case Resize:
		return "resize"
	case Rotation:
		return "rotation"
	case Brightness:
		return "brightness"
	case Gamma:
		return "gamma"
	case Perspective:
		return "perspective"
	default:
		return fmt.Sprintf("Trick(%d)", int(t))
	}
}

// Set is an ordered list of tricks applied in numeric order.
type Set []Trick

// NewSet builds a Set from paper-style trick numbers, e.g. NewSet(1,2,4,5).
func NewSet(nums ...int) Set {
	s := make(Set, 0, len(nums))
	for _, n := range nums {
		if n < 1 || n > 5 {
			panic(fmt.Sprintf("eot: invalid trick number %d", n))
		}
		s = append(s, Trick(n))
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// PaperBest is (1)+(2)+(4)+(5), the combination Sec. IV-B uses.
func PaperBest() Set { return NewSet(1, 2, 4, 5) }

// AllTricks is every trick.
func AllTricks() Set { return NewSet(1, 2, 3, 4, 5) }

// Has reports whether the set contains t.
func (s Set) Has(t Trick) bool {
	for _, x := range s {
		if x == t {
			return true
		}
	}
	return false
}

// String renders the paper's (1)+(2)+… notation.
func (s Set) String() string {
	if len(s) == 5 {
		return "All"
	}
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = fmt.Sprintf("(%d)", int(t))
	}
	return strings.Join(parts, "+")
}

// TableIVSets are the six combinations ablated in Table IV, in row order.
func TableIVSets() []Set {
	return []Set{
		NewSet(1, 2, 3, 5),
		NewSet(1, 2, 4, 5),
		NewSet(2, 3, 4, 5),
		NewSet(1, 3, 4, 5),
		NewSet(1, 2, 3, 4),
		AllTricks(),
	}
}

// Ranges bound the random transform magnitudes.
type Ranges struct {
	ResizeMin, ResizeMax         float64 // uniform scale factor
	RotationMaxRad               float64 // ± image-plane rotation
	BrightnessMin, BrightnessMax float64 // multiplicative
	GammaMin, GammaMax           float64
	PerspectiveJitter            float64 // corner jitter as a fraction of size
}

// DefaultRanges match the environmental variation the paper targets.
func DefaultRanges() Ranges {
	return Ranges{
		ResizeMin: 0.7, ResizeMax: 1.35,
		RotationMaxRad: 0.14,
		BrightnessMin:  0.72, BrightnessMax: 1.28,
		GammaMin: 0.7, GammaMax: 1.45,
		PerspectiveJitter: 0.07,
	}
}

// stage is one differentiable image operation.
type stage interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(d *tensor.Tensor) *tensor.Tensor
}

// Params records the transform parameters θ drawn for one chain, at their
// identity values for tricks outside the active set. They exist so the
// observability layer can journal the EOT distribution actually seen during
// training (Table IV debugging: which draws break convergence).
type Params struct {
	Resize   float64 // uniform scale factor (1 = none)
	Rotation float64 // radians (0 = none)
	Bright   float64 // multiplicative brightness (1 = none)
	Gamma    float64 // gamma exponent (1 = none)
	Persp    float64 // mean absolute corner displacement in px (0 = none)
}

// IdentityParams is θ for the empty transform chain.
func IdentityParams() Params {
	return Params{Resize: 1, Rotation: 0, Bright: 1, Gamma: 1, Persp: 0}
}

// Applied is one sampled transform chain A(·; θ). Forward/Backward must be
// called in matched pairs.
type Applied struct {
	// Params are the drawn transform parameters for this chain.
	Params Params

	stages []stage
	// invGeo maps *input* scene coordinates to *output* coordinates (the
	// inverse of the warp's output→input homography); identity when the
	// chain has no geometric stage.
	invGeo  imaging.Homography
	hasGeo  bool
	imgH    int
	imgW    int
	geoFail bool
}

// Sampler draws random transform chains from a trick set.
type Sampler struct {
	Tricks Set
	Ranges Ranges
}

// NewSampler builds a sampler with default ranges.
func NewSampler(tricks Set) *Sampler {
	return &Sampler{Tricks: tricks, Ranges: DefaultRanges()}
}

// Sample draws transform parameters θ for an h×w image. Geometric tricks
// resolve to differentiable warps; photometric tricks to pointwise stages.
// A trailing clamp keeps the image in [0,1] for the detector.
func (sm *Sampler) Sample(rng *rand.Rand, h, w int) *Applied {
	var st []stage
	r := sm.Ranges
	uni := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	cx, cy := float64(w)/2, float64(h)/2
	params := IdentityParams()

	// Compose all geometric tricks into a single warp (one resampling pass
	// preserves more signal than chained warps).
	geo := imaging.Identity()
	haveGeo := false
	if sm.Tricks.Has(Resize) {
		s := uni(r.ResizeMin, r.ResizeMax)
		params.Resize = s
		// Output→input mapping needs the inverse scale about the center.
		geo = geo.Mul(imaging.Translate(cx, cy).Mul(imaging.ScaleXY(1/s, 1/s)).Mul(imaging.Translate(-cx, -cy)))
		haveGeo = true
	}
	if sm.Tricks.Has(Rotation) {
		theta := uni(-r.RotationMaxRad, r.RotationMaxRad)
		params.Rotation = theta
		geo = geo.Mul(imaging.RotateAbout(-theta, cx, cy))
		haveGeo = true
	}
	if sm.Tricks.Has(Perspective) {
		j := r.PerspectiveJitter
		jit := func() float64 { return uni(-j, j) * float64(w) }
		src := [4]imaging.Point{{X: 0, Y: 0}, {X: float64(w), Y: 0}, {X: float64(w), Y: float64(h)}, {X: 0, Y: float64(h)}}
		dst := src
		disp := 0.0
		for i := range dst {
			dx, dy := jit(), jit()
			dst[i].X += dx
			dst[i].Y += dy
			disp += math.Abs(dx) + math.Abs(dy)
		}
		params.Persp = disp / 8
		// Output pixel (from dst quad) → input pixel (src quad).
		hmg, err := imaging.QuadToQuad(dst, src)
		if err == nil {
			geo = geo.Mul(hmg)
			haveGeo = true
		}
	}
	applied := &Applied{Params: params, imgH: h, imgW: w, invGeo: imaging.Identity()}
	if haveGeo {
		wp := imaging.NewWarp(geo, h, w, 0)
		wp.ClampEdges = true
		st = append(st, wp)
		if inv, err := geo.Invert(); err == nil {
			applied.invGeo, applied.hasGeo = inv, true
		} else {
			applied.geoFail = true
		}
	}
	if sm.Tricks.Has(Brightness) {
		b := uni(r.BrightnessMin, r.BrightnessMax)
		applied.Params.Bright = b
		st = append(st, imaging.NewBrightness(b))
	}
	if sm.Tricks.Has(Gamma) {
		gm := uni(r.GammaMin, r.GammaMax)
		applied.Params.Gamma = gm
		st = append(st, imaging.NewGamma(gm))
	}
	st = append(st, imaging.NewClampUnit())
	applied.stages = st
	return applied
}

// MapBox maps an axis-aligned box through the chain's geometric transform:
// a scene feature at box b in the pre-EOT frame appears at MapBox(b) in the
// transformed frame. ok is false when the transform degenerates or the box
// leaves the frame entirely.
func (a *Applied) MapBox(cx, cy, w, h float64) (ncx, ncy, nw, nh float64, ok bool) {
	if !a.hasGeo {
		if a.geoFail {
			return 0, 0, 0, 0, false
		}
		return cx, cy, w, h, true
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, c := range [4][2]float64{
		{cx - w/2, cy - h/2}, {cx + w/2, cy - h/2}, {cx + w/2, cy + h/2}, {cx - w/2, cy + h/2},
	} {
		x, y, valid := a.invGeo.Apply(c[0], c[1])
		if !valid {
			return 0, 0, 0, 0, false
		}
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	ncx, ncy = (minX+maxX)/2, (minY+maxY)/2
	nw, nh = maxX-minX, maxY-minY
	if ncx < 0 || ncy < 0 || ncx > float64(a.imgW-1) || ncy > float64(a.imgH-1) {
		return 0, 0, 0, 0, false
	}
	return ncx, ncy, nw, nh, true
}

// Forward applies the sampled chain to a [C,H,W] image.
func (a *Applied) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, s := range a.stages {
		x = s.Forward(x)
	}
	return x
}

// Backward backpropagates through the chain.
func (a *Applied) Backward(d *tensor.Tensor) *tensor.Tensor {
	for i := len(a.stages) - 1; i >= 0; i-- {
		d = a.stages[i].Backward(d)
	}
	return d
}
