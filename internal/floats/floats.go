// Package floats holds the shared epsilon comparison helpers. Two
// computations of one value that reassociate a float sum differ in the
// low bits, so bare == / != on floats is a latent divergence; ube-lint's
// floateq check bans it outside tests, and comparisons route through
// these helpers instead. Sites where bit-exact comparison is the point
// (sort comparators, zero-weight skips, the delta≡full audit whose two
// paths share one fold, cache keys) stay on == with a //ube:float-exact
// annotation.
package floats

import "math"

// Eps is the default comparison tolerance. Solve qualities live in [0,1]
// and reassociation error is ≪1e-12, so 1e-9 cleanly
// separates "same value computed two ways" from "different value".
const Eps = 1e-9

// EqTol reports whether a and b agree within tol, scaled by the larger
// magnitude (but never below 1, so values near zero compare absolutely).
func EqTol(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Eq is EqTol at the default tolerance.
func Eq(a, b float64) bool { return EqTol(a, b, Eps) }

// Zero reports whether x is within Eps of zero.
func Zero(x float64) bool { return math.Abs(x) <= Eps }
