package yolo

import (
	"reflect"
	"testing"

	"roadtrojan/internal/tensor"
)

// TestInputGradMatchesBackward: the frozen-detector backward the attack
// runs must return Backward's input gradient bit for bit, at one frame and
// at the paper's three-frame window, and must leave every parameter
// gradient exactly as it found it.
func TestInputGradMatchesBackward(t *testing.T) {
	for _, n := range []int{1, 3} {
		m, rng := smallModel(t, 61+int64(n))
		x := tensor.NewRandN(rng, 0.3, n, 3, 32, 32).AddScalar(0.5)
		heads := m.Forward(x)
		d := Heads{
			Coarse: tensor.NewRandN(rng, 1, heads.Coarse.Shape()...),
			Fine:   tensor.NewRandN(rng, 1, heads.Fine.Shape()...),
		}

		params := m.Params()
		for i, p := range params {
			p.Grad.Fill(float64(i) + 0.5)
		}
		got := m.InputGrad(d)
		for i, p := range params {
			for j, v := range p.Grad.Data() {
				if v != float64(i)+0.5 {
					t.Fatalf("n=%d: InputGrad changed %s.Grad[%d] to %v", n, p.Name, j, v)
				}
			}
		}

		m.Forward(x)
		want := m.Backward(d)
		if !reflect.DeepEqual(got.Shape(), want.Shape()) {
			t.Fatalf("n=%d: InputGrad shape %v, Backward %v", n, got.Shape(), want.Shape())
		}
		for i, v := range want.Data() {
			if got.Data()[i] != v {
				t.Fatalf("n=%d dInput[%d]: InputGrad %v, Backward %v", n, i, got.Data()[i], v)
			}
		}
	}
}
