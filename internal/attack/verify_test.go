package attack

import (
	"math/rand"
	"testing"

	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

// verifyPerView is the one-view-at-a-time form of VerifyChannel: each view
// renders, draws its capture noise and runs its own N=1 detector forward
// before the next view starts. It also returns the images the detector saw.
func verifyPerView(det *yolo.Model, cam scene.Camera, sc Scene, p *Patch, ch physical.Channel, rng *rand.Rand) (float64, []float64, error) {
	ground, err := Deploy(sc, p, ch, rng)
	if err != nil {
		return 0, nil, err
	}
	det.SetTraining(false)
	var seen []float64
	hits, views := 0, 0
	for _, dist := range []float64{3, 3.5, 4, 5, 6, 7} {
		c := cam
		c.Y = sc.TargetGY - dist
		box, ok := c.GroundBoxToImage(sc.GX0, sc.GY0, sc.GX1, sc.GY1)
		if !ok {
			continue
		}
		img, err := c.Render(ground)
		if err != nil {
			return 0, nil, err
		}
		views++
		if ch.Enabled {
			img = ch.Capture.Apply(rng, img)
		}
		seen = append(seen, img.Data()...)
		heads := det.Forward(img.Reshape(1, 3, img.Dim(1), img.Dim(2)))
		dets := det.DecodeSample(heads, 0, yolo.DefaultDecode())
		if d, ok := yolo.MatchTarget(dets, box, 0.2); ok && d.Class == p.Cfg.TargetClass {
			hits++
		}
	}
	return float64(hits) / float64(views), seen, nil
}

// TestVerifyChannelMatchesPerView: scoring every view in one batched
// forward must give the per-view loop's score and leave the RNG exactly
// where the per-view loop leaves it, digitally and through the
// print-and-capture channel. The batch must hold the per-view images bit
// for bit, which pins the capture-noise order a score can miss, and some
// target class must score strictly between 0 and 1, so a view scored
// against another view's box would show.
func TestVerifyChannelMatchesPerView(t *testing.T) {
	sc := testScene()
	cam := scene.DefaultCamera()
	det := yolo.New(rand.New(rand.NewSource(5)), yolo.DefaultConfig())
	for name, ch := range map[string]physical.Channel{"digital": physical.Digital(), "real-world": physical.RealWorld()} {
		mixed := false
		for cls := scene.Class(0); cls <= scene.NumClasses; cls++ {
			cfg := DefaultConfig()
			cfg.TargetClass = cls
			p := &Patch{
				Gray: tensor.NewRandU(rand.New(rand.NewSource(13)), 0, 0.5, 1, 32, 32),
				Mask: shapes.Mask(shapes.Star, 32, 0.9, 0),
				Cfg:  cfg,
			}
			gotRng, wantRng := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
			got, err := VerifyChannel(det, cam, sc, p, ch, gotRng)
			if err != nil {
				t.Fatal(err)
			}
			want, seen, err := verifyPerView(det, cam, sc, p, ch, wantRng)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s class %d: batched score %v, per-view %v", name, cls, got, want)
			}
			if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
				t.Fatalf("%s class %d: next draw after batched verify %d, per-view %d", name, cls, g, w)
			}
			mixed = mixed || (got > 0 && got < 1)

			viewRng := rand.New(rand.NewSource(17))
			ground, err := Deploy(sc, p, ch, viewRng)
			if err != nil {
				t.Fatal(err)
			}
			batch, _, err := verifyViews(cam, sc, ground, ch, viewRng)
			if err != nil {
				t.Fatal(err)
			}
			if batch.Len() != len(seen) {
				t.Fatalf("%s class %d: batch holds %d values, per-view images %d", name, cls, batch.Len(), len(seen))
			}
			for i, v := range batch.Data() {
				if v != seen[i] {
					t.Fatalf("%s class %d: batch[%d] = %v, per-view image value %v", name, cls, i, v, seen[i])
				}
			}
		}
		if !mixed {
			t.Fatalf("%s: every class scored 0 or 1; the comparison cannot catch a view/box mix-up", name)
		}
	}
}
