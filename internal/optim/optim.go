// Package optim provides the Adam optimizer and gradient-norm clipping over
// nn parameters.
package optim

import (
	"math"

	"roadtrojan/internal/nn"
)

// Adam implements the Adam optimizer (Kingma & Ba); the paper trains both
// its GAN and the baseline attack with Adam.
type Adam struct {
	params []*nn.Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   [][]float64
}

// NewAdam creates an Adam optimizer with the canonical β₁=0.9, β₂=0.999.
func NewAdam(params []*nn.Param, lr float64) *Adam {
	m := make([][]float64, len(params))
	v := make([][]float64, len(params))
	for i, p := range params {
		m[i] = make([]float64, p.Value.Len())
		v[i] = make([]float64, p.Value.Len())
	}
	return &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: m, v: v}
}

// Step applies one bias-corrected Adam update.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		w := p.Value.Data()
		g := p.Grad.Data()
		m := a.m[i]
		v := a.v[i]
		for j := range w {
			m[j] = a.beta1*m[j] + (1-a.beta1)*g[j]
			v[j] = a.beta2*v[j] + (1-a.beta2)*g[j]*g[j]
			mh := m[j] / c1
			vh := v[j] / c2
			w[j] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
		}
	}
}

// SetLR changes the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR reports the learning rate.
func (a *Adam) LR() float64 { return a.lr }

// ClipGradNorm scales gradients so their global L2 norm is at most maxNorm.
// It returns the pre-clip norm.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
