// Package deadexportfacade stands in for the genie.go facade in the
// deadexport fixture: a non-main package outside internal/.
package deadexportfacade

import d "genie/internal/analysis/testdata/src/internal/deadexportdata"

// FacadeOnly re-exports the internal hook.
func FacadeOnly() { d.FacadeOnly() }
