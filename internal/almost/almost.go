// Package almost holds the float-tolerance comparison the repository's
// tests share. Exact float equality is a latent bug once values flow
// through arithmetic (the floatcmp analyzer flags it); tests assert
// with Equal instead. Only _test.go files import this package.
package almost

import "math"

// Equal compares floats with a small absolute+relative tolerance.
func Equal(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
