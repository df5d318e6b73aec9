package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMulDetectorShapes times the production and reference kernels
// on the exact matmul shapes the 64×64 detector's conv layers lower to —
// the shapes DetectorInference spends its time in. Skewed cases (tiny n,
// tall m) behave very differently from square products, so kernel tuning
// is checked here rather than on 128³ alone.
func BenchmarkMatMulDetectorShapes(b *testing.B) {
	for _, s := range detectorShapes {
		rng := rand.New(rand.NewSource(9))
		a := NewRandN(rng, 1, s.m, s.k)
		bb := NewRandN(rng, 1, s.n*s.k).Reshape(s.k, s.n)
		dst := New(s.m, s.n)
		for _, kern := range []string{"blocked", "packed", "ref"} {
			name := fmt.Sprintf("m%dk%dn%d/%s", s.m, s.k, s.n, kern)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					switch kern {
					case "blocked":
						matMulRowsBlocked(dst.data, a.data, bb.data, 0, s.m, s.k, s.n, false)
					case "packed":
						for j := range dst.data {
							dst.data[j] = 0
						}
						matMulRowsPacked(dst.data, a.data, bb.data, 0, s.m, s.k, s.n)
					case "ref":
						matMulRowsRef(dst.data, a.data, bb.data, 0, s.m, s.k, s.n, false)
					}
				}
			})
		}
	}
}
