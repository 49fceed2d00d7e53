package almost

import "testing"

func TestEqual(t *testing.T) {
	for _, tc := range []struct {
		a, b float64
		want bool
	}{
		{0.1 + 0.2, 0.3, true},
		{1e12, 1e12 + 1e-3, true},
		{0, 1e-10, true},
		{0, 1e-8, false},
		{1, 1.001, false},
	} {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
