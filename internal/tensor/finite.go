package tensor

import (
	"fmt"
	"math"
	"os"
)

// checkFinite gates AssertFinite. It is read once from the environment so
// the hot path costs a single bool load; this package's tests flip it.
var checkFinite = os.Getenv("ROADTROJAN_CHECK_FINITE") == "1"

// AssertFinite panics if any element of t is NaN or infinite, identifying
// the label, the flat index, and the offending value. It is a no-op unless
// ROADTROJAN_CHECK_FINITE=1 is set, so
// callers can leave assertions on gradient and loss tensors in production
// code paths without paying for the scan.
func AssertFinite(label string, t *Tensor) {
	if !checkFinite || t == nil {
		return
	}
	for i, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("tensor: non-finite value %v at %s[%d] (shape %v)", v, label, i, t.shape))
		}
	}
}

// AssertFiniteScalar is AssertFinite for a bare float64, used on scalar
// losses before they are folded into a tensor.
func AssertFiniteScalar(label string, v float64) {
	if !checkFinite {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("tensor: non-finite value %v at %s", v, label))
	}
}
