package scene

import (
	"math/rand"

	"roadtrojan/internal/tensor"
)

// DatasetConfig controls the synthetic stand-in for the paper's 1000-train /
// 71-test road-image dataset.
type DatasetConfig struct {
	Cam      Camera
	NumTrain int
	NumTest  int
	Seed     int64
}

// Dataset holds labeled train/test frames.
type Dataset struct {
	Train []Frame
	Test  []Frame
}

// GenerateDataset renders cfg.NumTrain+cfg.NumTest random labeled road
// scenes. Scenes mix the five classes: ground-painted marks and words,
// billboard cars, people and bicycles.
func GenerateDataset(cfg DatasetConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// A small pool of base road textures, cloned per scene before painting.
	bases := make([]*Ground, 6)
	for i := range bases {
		bases[i] = NewRoad(rng, 8, 30, 0.05)
	}
	total := cfg.NumTrain + cfg.NumTest
	frames := make([]Frame, 0, total)
	for len(frames) < total {
		f := randomScene(rng, cfg.Cam, bases)
		if len(f.Objects) == 0 {
			continue // every dataset image contains at least one object
		}
		frames = append(frames, f)
	}
	return &Dataset{Train: frames[:cfg.NumTrain], Test: frames[cfg.NumTrain:]}
}

// randomScene builds one labeled frame.
func randomScene(rng *rand.Rand, cam Camera, bases []*Ground) Frame {
	base := bases[rng.Intn(len(bases))]
	g := &Ground{Tex: base.Tex.Clone(), WidthM: base.WidthM, LengthM: base.LengthM, MPP: base.MPP}

	cam.X = (rng.Float64() - 0.5) * 1.6
	cam.Y = rng.Float64() * 2
	cam.Yaw = (rng.Float64() - 0.5) * 0.12
	cam.Roll = (rng.Float64() - 0.5) * 0.08

	type groundMark struct {
		class              Class
		gx0, gy0, gx1, gy1 float64
	}
	var marks []groundMark
	// 1–2 painted ground markings.
	nMarks := 1 + rng.Intn(2)
	for i := 0; i < nMarks; i++ {
		gx := cam.X + (rng.Float64()-0.5)*3
		gy := cam.Y + 4 + rng.Float64()*12
		if rng.Float64() < 0.55 {
			lenM := 1.4 + rng.Float64()*0.8
			x0, y0, x1, y1 := g.PaintArrow(gx, gy, lenM)
			if rng.Float64() < 0.5 {
				g.WearArrow(rng, gx, gy, lenM, 0.05+rng.Float64()*0.2)
			}
			marks = append(marks, groundMark{Mark, x0, y0, x1, y1})
		} else {
			stripes := 3 + rng.Intn(4)
			gap := 0.0
			if rng.Float64() < 0.5 {
				gap = rng.Float64() * 0.3
			}
			x0, y0, x1, y1 := g.PaintWordStripesN(gx, gy, 1.6+rng.Float64()*0.8, stripes, gap)
			marks = append(marks, groundMark{Word, x0, y0, x1, y1})
		}
	}
	if rng.Float64() < 0.2 {
		g.PaintCrosswalkBar(cam.X+(rng.Float64()-0.5)*2, cam.Y+5+rng.Float64()*8, 2.5, 0.4)
	}

	img, err := cam.Render(g)
	if err != nil {
		// Camera jitter ranges guarantee a valid homography; treat failure
		// as a bug rather than a recoverable state.
		panic("scene: randomScene render: " + err.Error())
	}

	var objs []Object
	for _, m := range marks {
		if b, ok := cam.GroundBoxToImage(m.gx0, m.gy0, m.gx1, m.gy1); ok {
			objs = append(objs, Object{Class: m.class, Box: b})
		}
	}

	// 0–2 upright objects off to the sides or ahead.
	nBill := rng.Intn(3)
	for i := 0; i < nBill; i++ {
		var sp *Sprite
		switch rng.Intn(3) {
		case 0:
			sp = NewCarSprite(rng)
		case 1:
			sp = NewPersonSprite(rng)
		default:
			sp = NewBicycleSprite(rng)
		}
		gx := cam.X + (rng.Float64()-0.5)*5
		gy := cam.Y + 5 + rng.Float64()*14
		if b, ok := PasteBillboard(img, cam, sp, gx, gy); ok {
			objs = append(objs, Object{Class: sp.Class, Box: b})
		}
	}

	// Global illumination jitter.
	gain := 0.85 + rng.Float64()*0.3
	img.Scale(gain).Clamp(0, 1)

	return Frame{Image: img, Objects: objs}
}

// Batch assembles a [n,3,H,W] tensor and the per-image labels from frames,
// starting at offset off (wrapping around).
func Batch(frames []Frame, off, n int) (*tensor.Tensor, [][]Object) {
	if len(frames) == 0 {
		return tensor.New(0, 3, 1, 1), nil
	}
	h := frames[0].Image.Dim(1)
	w := frames[0].Image.Dim(2)
	out := tensor.New(n, 3, h, w)
	labels := make([][]Object, n)
	sz := 3 * h * w
	for i := 0; i < n; i++ {
		f := frames[(off+i)%len(frames)]
		copy(out.Data()[i*sz:(i+1)*sz], f.Image.Data())
		labels[i] = f.Objects
	}
	return out, labels
}
