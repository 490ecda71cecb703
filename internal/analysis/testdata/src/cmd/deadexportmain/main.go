// Command deadexportmain stands in for one of the module's programs in
// the deadexport fixture.
package main

import d "genie/internal/analysis/testdata/src/internal/deadexportdata"

func main() {
	d.Live()
	var s d.Shape = d.Square{N: 2}
	_ = s.Area()
}
