// Package nn is a layer-based neural-network framework with hand-written
// forward and backward passes over internal/tensor. Modules cache whatever
// their backward pass needs during Forward; calling Backward before Forward
// panics. Parameter gradients accumulate across Backward calls until
// ZeroGrads. A frozen network (the attacked detector) instead calls
// InputGrad on Conv2D, inference-mode BatchNorm2D and ConvBNLeaky: the same
// input gradient, bit for bit, with no parameter gradient computed or
// touched.
//
// # Concurrency
//
// Modules are NOT reentrant: every Forward overwrites the layer's cached
// activations (lastInput and friends), so two goroutines running Forward —
// or Forward and Backward — on the same module race on those caches and
// silently corrupt each other's results even in inference mode. To run a
// network from several goroutines, give each goroutine its own deep replica
// via the Cloner interface (yolo.Model.Clone builds on it); a clone shares
// no mutable state with its source.
package nn

import (
	"fmt"

	"roadtrojan/internal/tensor"
)

// Param is a learnable tensor with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter (and matching zero gradient) around v.
func NewParam(name string, v *tensor.Tensor) *Param {
	return &Param{Name: name, Value: v, Grad: tensor.New(v.Shape()...)}
}

// Clone returns a deep copy of the parameter: value and gradient are fresh
// tensors sharing no storage with p.
func (p *Param) Clone() *Param {
	return &Param{Name: p.Name, Value: p.Value.Clone(), Grad: p.Grad.Clone()}
}

// Module is a differentiable computation stage. Modules are not safe for
// concurrent use: Forward caches activations for Backward in place (see the
// package comment); clone the module per goroutine instead of sharing it.
type Module interface {
	// Forward consumes a batch and returns the module output.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the output of the most recent
	// Forward and returns the gradient w.r.t. that Forward's input,
	// accumulating parameter gradients along the way.
	Backward(dOut *tensor.Tensor) *tensor.Tensor
	// Params returns the module's learnable parameters (possibly empty).
	Params() []*Param
}

// Cloner is implemented by modules that can deep-copy themselves. A clone
// shares no mutable state with its source — parameters, gradients, running
// statistics, and forward caches are all fresh — so source and clone can
// run Forward/Backward from different goroutines without synchronization.
// Forward caches are not copied: a clone starts as if Forward had never
// been called.
type Cloner interface {
	CloneModule() Module
}

// MustCloneModule deep-copies m via its Cloner implementation, panicking if
// the module does not support cloning.
func MustCloneModule(m Module) Module {
	c, ok := m.(Cloner)
	if !ok {
		panic(fmt.Sprintf("nn: module %T does not implement Cloner", m))
	}
	return c.CloneModule()
}

// ModeSetter is implemented by modules that behave differently in training
// and inference (BatchNorm).
type ModeSetter interface {
	SetTraining(training bool)
}

// Sequential chains modules; the output of each feeds the next.
type Sequential struct {
	mods []Module
}

var _ Module = (*Sequential)(nil)

// NewSequential builds a chain out of the given modules.
func NewSequential(mods ...Module) *Sequential {
	return &Sequential{mods: mods}
}

// Forward runs the chain left to right.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, m := range s.mods {
		x = m.Forward(x)
	}
	return x
}

// Backward runs the chain right to left.
func (s *Sequential) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.mods) - 1; i >= 0; i-- {
		dOut = s.mods[i].Backward(dOut)
	}
	return dOut
}

// Params collects the parameters of every stage in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, m := range s.mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// Clone deep-copies the chain stage by stage.
func (s *Sequential) Clone() *Sequential {
	out := &Sequential{mods: make([]Module, len(s.mods))}
	for i, m := range s.mods {
		out.mods[i] = MustCloneModule(m)
	}
	return out
}

// CloneModule implements Cloner.
func (s *Sequential) CloneModule() Module { return s.Clone() }

// SetTraining propagates the training flag to every stage that cares.
func (s *Sequential) SetTraining(training bool) {
	for _, m := range s.mods {
		if ms, ok := m.(ModeSetter); ok {
			ms.SetTraining(training)
		}
	}
}

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// CountParams returns the total number of scalar parameters in ps.
func CountParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Len()
	}
	return n
}

func mustForwarded(cached *tensor.Tensor, module string) {
	if cached == nil {
		panic(fmt.Sprintf("nn: %s.Backward called before Forward", module))
	}
}
