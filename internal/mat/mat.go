// Package mat holds the approved floating-point comparison helpers of the
// solver stack. birplint's floateq analyzer flags raw ==/!= on floats
// everywhere else and points at these helpers, so the intent of each
// comparison — tolerance or exact sentinel — is explicit at the call site.
package mat

import "math"

// Eq reports whether two scalars agree within tol: |a - b| <= tol. This is
// the approved way to compare computed floating-point quantities — raw == on
// floats is flagged by birplint because two mathematically equal values
// computed along different code paths can differ in the last bit.
func Eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Zero reports whether x is exactly IEEE zero. Use it where exactness is the
// semantic — "this option was left unset" sentinels and skip-zero fast paths
// over values that were stored, not computed — so the intent survives review;
// for "is this computed value negligible", use Eq(x, 0, tol).
func Zero(x float64) bool { return x == 0 }
