package tensor

import (
	"fmt"
	"strings"
)

// Shape describes the extent of each tensor dimension, outermost first.
type Shape []int

// NumElements returns the total element count (1 for a scalar shape).
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Clone returns an independent copy.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every extent is positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// String renders like "[2 3 4]".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Strides returns row-major (C-contiguous) strides in elements.
//
//lint:ignore deadexport test reference: row-major stride helper pinned by tensor tests
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

// BroadcastShapes computes the NumPy-style broadcast result of a and b.
// Dimensions align from the right; a dimension of 1 stretches.
func BroadcastShapes(a, b Shape) (Shape, error) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Shape, n)
	for i := 0; i < n; i++ {
		da, db := 1, 1
		if i >= n-len(a) {
			da = a[i-(n-len(a))]
		}
		if i >= n-len(b) {
			db = b[i-(n-len(b))]
		}
		switch {
		case da == db:
			out[i] = da
		case da == 1:
			out[i] = db
		case db == 1:
			out[i] = da
		default:
			return nil, fmt.Errorf("tensor: cannot broadcast %v with %v", a, b)
		}
	}
	return out, nil
}
