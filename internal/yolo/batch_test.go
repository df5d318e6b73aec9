package yolo

import (
	"math/rand"
	"reflect"
	"testing"

	"roadtrojan/internal/tensor"
)

// smallModel builds a 32×32 detector with warmed batch-norm statistics,
// frozen in inference mode.
func smallModel(t *testing.T, seed int64) (*Model, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.InputSize = 32
	m := New(rng, cfg)
	m.Forward(tensor.NewRandN(rng, 0.5, 2, 3, 32, 32).AddScalar(0.5))
	m.SetTraining(false)
	return m, rng
}

// sampleSlice extracts sample i of a [N,C,H,W] tensor as [1,C,H,W].
func sampleSlice(x *tensor.Tensor, i int) *tensor.Tensor {
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(1, c, h, w)
	per := c * h * w
	copy(out.Data(), x.Data()[i*per:(i+1)*per])
	return out
}

// TestForwardBatchMatchesSingles: one N=4 forward must reproduce four N=1
// forwards bit for bit, fused and unfused — batched serving cannot change
// results.
func TestForwardBatchMatchesSingles(t *testing.T) {
	m, rng := smallModel(t, 41)
	batch := tensor.NewRandN(rng, 0.3, 4, 3, 32, 32).AddScalar(0.5)

	for _, fused := range []bool{false, true} {
		m.SetFused(fused)
		bh := m.Forward(batch)
		for i := 0; i < 4; i++ {
			sh := m.Forward(sampleSlice(batch, i))
			for name, pair := range map[string][2]*tensor.Tensor{
				"coarse": {bh.Coarse, sh.Coarse},
				"fine":   {bh.Fine, sh.Fine},
			} {
				bt, st := pair[0], pair[1]
				per := st.Len()
				bd := bt.Data()[i*per : (i+1)*per]
				for j, v := range st.Data() {
					if bd[j] != v {
						t.Fatalf("fused=%v sample %d %s[%d]: batch %v single %v", fused, i, name, j, bd[j], v)
					}
				}
			}
			// Re-run the batch: the single-sample forwards clobbered module
			// caches, and head tensors must come out identical again.
			bh = m.Forward(batch)
		}
	}
}

// TestFusedModelBitIdentical: SetFused(true) with exact parity (the default)
// must not change a single output bit at any batch size.
func TestFusedModelBitIdentical(t *testing.T) {
	m, rng := smallModel(t, 42)
	for _, n := range []int{1, 2, 7} {
		x := tensor.NewRandN(rng, 0.3, n, 3, 32, 32).AddScalar(0.5)
		m.SetFused(false)
		want := m.Forward(x)
		m.SetFused(true)
		got := m.Forward(x)
		for i, v := range got.Coarse.Data() {
			if v != want.Coarse.Data()[i] {
				t.Fatalf("n=%d coarse[%d]: fused %v unfused %v", n, i, v, want.Coarse.Data()[i])
			}
		}
		for i, v := range got.Fine.Data() {
			if v != want.Fine.Data()[i] {
				t.Fatalf("n=%d fine[%d]: fused %v unfused %v", n, i, v, want.Fine.Data()[i])
			}
		}
	}
}

// TestFusedModelBitIdenticalAfterLoadState: a fused inference-mode model
// whose weights and running statistics are replaced by LoadState, with no
// mode switch in between, must answer the unfused chain's bytes for the new
// state.
func TestFusedModelBitIdenticalAfterLoadState(t *testing.T) {
	m, rng := smallModel(t, 45)
	src, _ := smallModel(t, 46)
	m.SetFused(true)
	x := tensor.NewRandN(rng, 0.3, 2, 3, 32, 32).AddScalar(0.5)
	m.Forward(x)
	if err := m.LoadState(src.State()); err != nil {
		t.Fatal(err)
	}
	got := m.Forward(x)
	want := src.Forward(x)
	for i, v := range got.Coarse.Data() {
		if v != want.Coarse.Data()[i] {
			t.Fatalf("coarse[%d]: fused after LoadState %v unfused %v", i, v, want.Coarse.Data()[i])
		}
	}
	for i, v := range got.Fine.Data() {
		if v != want.Fine.Data()[i] {
			t.Fatalf("fine[%d]: fused after LoadState %v unfused %v", i, v, want.Fine.Data()[i])
		}
	}
}

// TestDecodeBatchMatchesDecodeSample: parallel batch decode must equal the
// per-sample decoder exactly, detection for detection.
func TestDecodeBatchMatchesDecodeSample(t *testing.T) {
	m, rng := smallModel(t, 43)
	m.SetFused(true)
	x := tensor.NewRandN(rng, 0.4, 5, 3, 32, 32).AddScalar(0.5)
	h := m.Forward(x)
	opts := DefaultDecode()
	opts.ConfThreshold = 0.05 // low bar so an untrained net still yields boxes
	batch := m.DecodeBatch(h, opts)
	if len(batch) != 5 {
		t.Fatalf("DecodeBatch returned %d lists, want 5", len(batch))
	}
	any := false
	for i, dets := range batch {
		want := m.DecodeSample(h, i, opts)
		if !reflect.DeepEqual(dets, want) {
			t.Fatalf("sample %d: batch decode %v want %v", i, dets, want)
		}
		if len(dets) > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no detections decoded at threshold 0.05; test exercises nothing")
	}
}

// TestFusedCloneServingPath mirrors the serving executor: a fused clone of a
// trained model must produce the same heads as the unfused source.
func TestFusedCloneServingPath(t *testing.T) {
	m, rng := smallModel(t, 44)
	c := m.Clone()
	c.SetFused(true)
	x := tensor.NewRandN(rng, 0.3, 2, 3, 32, 32).AddScalar(0.5)
	want := m.Forward(x)
	got := c.Forward(x)
	for i, v := range got.Coarse.Data() {
		if v != want.Coarse.Data()[i] {
			t.Fatalf("coarse[%d]: clone %v source %v", i, v, want.Coarse.Data()[i])
		}
	}
	for i, v := range got.Fine.Data() {
		if v != want.Fine.Data()[i] {
			t.Fatalf("fine[%d]: clone %v source %v", i, v, want.Fine.Data()[i])
		}
	}
}
