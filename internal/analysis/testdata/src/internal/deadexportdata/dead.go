// Package deadexportdata is genie-lint test fixture data for the
// deadexport check. cmd/deadexportmain stands in for the module's
// programs and deadexportfacade for the genie.go facade.
package deadexportdata

import "strconv"

// Live is called by the program stand-in.
func Live() {}

// OnlyTests is called from dead_test.go alone, and the loader reads no
// test file.
func OnlyTests() {} // want "exported func OnlyTests is referenced by no non-test file"

// FacadeOnly is reached only through the facade stand-in.
func FacadeOnly() {} // want "exported func FacadeOnly is facade only"

// Recurse references only itself, which does not count.
func Recurse(n int) int { // want "exported func Recurse is referenced by no non-test file"
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Kept is dead, and annotated.
//
//lint:ignore deadexport fixture of the directive
func Kept() {}

// Shape is the interface the program converts Square to.
type Shape interface{ Area() int }

// Square is used by the program only as a Shape.
type Square struct{ N int }

// Area is reached through Shape: its name is a module interface method.
func (s Square) Area() int { return s.N * s.N }

// String is reached through fmt.Stringer, a standard-library interface.
func (s Square) String() string { return strconv.Itoa(s.N) }

// Perimeter matches no interface method and nothing calls it.
func (s Square) Perimeter() int { return 4 * s.N } // want "exported method Square.Perimeter is referenced by no non-test file"

// Unused is referenced only by its own method, which is reported with
// it rather than on its own.
type Unused struct{} // want "exported type Unused is referenced by no non-test file"

// Self returns the receiver.
func (u Unused) Self() Unused { return u }

// unexported declarations are never reported.
func helper() {}
