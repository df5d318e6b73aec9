package tensor

import (
	"math"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	fn()
}

func TestAssertFiniteDisabledByDefault(t *testing.T) {
	prev := checkFinite
	checkFinite = false
	defer func() { checkFinite = prev }()
	x := FromSlice([]float64{1, math.NaN(), 3}, 3)
	AssertFinite("x", x) // must not panic while the gate is off
	AssertFiniteScalar("s", math.Inf(1))
}

func TestAssertFiniteEnabled(t *testing.T) {
	prev := checkFinite
	checkFinite = true
	defer func() { checkFinite = prev }()

	AssertFinite("ok", FromSlice([]float64{1, 2, 3}, 3))
	AssertFinite("nil", nil)
	AssertFiniteScalar("ok", 1.5)

	mustPanic(t, "loss[1]", func() {
		AssertFinite("loss", FromSlice([]float64{1, math.NaN(), 3}, 3))
	})
	mustPanic(t, "grad[0]", func() {
		AssertFinite("grad", FromSlice([]float64{math.Inf(-1)}, 1))
	})
	mustPanic(t, "scalar loss", func() {
		AssertFiniteScalar("scalar loss", math.NaN())
	})
}
