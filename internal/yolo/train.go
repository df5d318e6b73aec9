package yolo

import (
	"fmt"
	"io"
	"math/rand"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/obs"
	"roadtrojan/internal/optim"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/tensor"
)

// TrainConfig controls detector training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	Weights   LossWeights
	// NoAugment disables the photometric training augmentation (per-image
	// exposure jitter + sensor noise). Augmentation is on by default: a
	// detector fit to noiseless renders develops unrealistically sharp
	// decision boundaries.
	NoAugment bool
	// Log receives one line per epoch when non-nil.
	Log io.Writer
	// Trace receives structured epoch records; when nil, Log is adapted
	// through a text trace so the historical output is unchanged.
	Trace *obs.Trace
}

// augmentBatch applies per-image exposure jitter and pixel noise in place.
func augmentBatch(rng *rand.Rand, x *tensor.Tensor) {
	n := x.Dim(0)
	sz := x.Len() / max(n, 1)
	for i := 0; i < n; i++ {
		gain := 0.85 + rng.Float64()*0.3
		seg := x.Data()[i*sz : (i+1)*sz]
		for j := range seg {
			v := seg[j]*gain + rng.NormFloat64()*0.02
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			seg[j] = v
		}
	}
}

// Train fits the detector on the dataset with Adam, returning the per-epoch
// average training loss.
func Train(m *Model, ds *scene.Dataset, cfg TrainConfig) ([]float64, error) {
	if len(ds.Train) == 0 {
		return nil, fmt.Errorf("yolo: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := m.Params()
	opt := optim.NewAdam(params, cfg.LR)
	m.SetTraining(true)

	tr := cfg.Trace
	if tr == nil {
		tr = obs.TextTrace(cfg.Log)
	}
	sp := tr.Span("detector_train", obs.I("epochs", cfg.Epochs), obs.I64("seed", cfg.Seed))
	defer sp.End()

	order := rng.Perm(len(ds.Train))
	history := make([]float64, 0, cfg.Epochs)
	curLR := cfg.LR
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Cosine-free simple decay: drop LR 10× for the last fifth.
		if cfg.Epochs >= 5 && epoch == cfg.Epochs*4/5 {
			curLR = cfg.LR / 10
			opt.SetLR(curLR)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss, batches := 0.0, 0
		for off := 0; off < len(order); off += cfg.BatchSize {
			idx := order[off:min(off+cfg.BatchSize, len(order))]
			frames := make([]scene.Frame, len(idx))
			for i, j := range idx {
				frames[i] = ds.Train[j]
			}
			x, labels := scene.Batch(frames, 0, len(frames))
			if !cfg.NoAugment {
				augmentBatch(rng, x)
			}
			nn.ZeroGrads(params)
			heads := m.Forward(x)
			res := m.Loss(heads, labels, cfg.Weights)
			m.Backward(res.Grad)
			optim.ClipGradNorm(params, 10)
			opt.Step()
			epochLoss += res.Total
			batches++
		}
		avg := epochLoss / float64(batches)
		history = append(history, avg)
		sp.Epoch(obs.EpochStats{Epoch: epoch, Loss: avg, LR: curLR})
	}
	m.SetTraining(false)
	return history, nil
}

// EvalStats summarize detector quality on a labeled set.
type EvalStats struct {
	Objects        int
	Detected       int // IoU ≥ 0.3 with some detection
	CorrectClass   int // detected and class matches
	FalsePositives int
}

// Recall is Detected/Objects.
func (e EvalStats) Recall() float64 {
	if e.Objects == 0 {
		return 0
	}
	return float64(e.Detected) / float64(e.Objects)
}

// ClassAccuracy is CorrectClass/Objects.
func (e EvalStats) ClassAccuracy() float64 {
	if e.Objects == 0 {
		return 0
	}
	return float64(e.CorrectClass) / float64(e.Objects)
}

// Evaluate runs inference over frames and scores detection quality.
func Evaluate(m *Model, frames []scene.Frame, opts DecodeOptions) EvalStats {
	m.SetTraining(false)
	var st EvalStats
	for _, f := range frames {
		x, _ := scene.Batch([]scene.Frame{f}, 0, 1)
		heads := m.Forward(x)
		dets := m.DecodeSample(heads, 0, opts)
		matched := make([]bool, len(dets))
		for _, o := range f.Objects {
			st.Objects++
			bestIoU, bestJ := 0.0, -1
			for j, d := range dets {
				if iou := d.Box.IoU(o.Box); iou > bestIoU {
					bestIoU, bestJ = iou, j
				}
			}
			if bestIoU >= 0.3 && bestJ >= 0 {
				st.Detected++
				matched[bestJ] = true
				if dets[bestJ].Class == o.Class {
					st.CorrectClass++
				}
			}
		}
		for j := range dets {
			if !matched[j] {
				st.FalsePositives++
			}
		}
	}
	return st
}
