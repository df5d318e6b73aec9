// Package lib exercises deadcode: one declaration per rule. Package user
// (the sibling directory) imports it by module path, from production code
// and from its tests.
package lib

// Exported has a production caller in package user.
func Exported() int { return helper() }

// helper has a production caller in this package.
func helper() int { return 1 }

// TestOnly is used only by this package's own tests.
func TestOnly() int { return 2 } // want "deadcode: TestOnly has no use"

func unused() {} // want "deadcode: unused has no use"

// SharedHelper is used only by another package's tests, like a shared test
// helper: that counts.
func SharedHelper() int { return 3 }

// Recursive calls only itself, which does not count.
func Recursive(n int) int { // want "deadcode: Recursive has no use"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Clock is named only in its own method's receiver and body.
type Clock struct{ t int } // want "deadcode: Clock has no use"

// Tick is dead with its type.
func (c Clock) Tick() Clock { return Clock{t: c.t + 1} } // want "deadcode: Clock.Tick has no use"

// Sink is an interface: any method named Emit is exempt.
type Sink interface{ Emit(v int) }

type logSink struct{ n int }

// NewSink has a production caller in package user.
func NewSink() Sink { return &logSink{} }

// Drain has a production caller in package user.
func Drain(s Sink) { s.Emit(0) }

// Emit is called only through Sink.
func (l *logSink) Emit(v int) { l.n += v }

// String is a name the standard library calls dynamically.
func (l *logSink) String() string { return "sink" }

func (l *logSink) flushAll() {} // want "deadcode: logSink.flushAll has no use"

// Box is generic: a use through an instantiation counts for the
// declaration.
type Box[T any] struct{ v T }

// Get has a production caller in package user, on Box[int].
func (b Box[T]) Get() T { return b.v }

// Kind has a used constant and an unused one.
type Kind int

const (
	KindA Kind = iota
	KindB      // want "deadcode: KindB has no use"
)

var unusedVar = 1 // want "deadcode: unusedVar has no use"

// check is an invariant checker only tests run; the suppression keeps it.
//
//rtlint:ignore deadcode invariant checker run by the tests
func check() bool { return true }
