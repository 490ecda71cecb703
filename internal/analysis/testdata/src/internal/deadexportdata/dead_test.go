package deadexportdata

import "testing"

func TestOnlyTests(t *testing.T) { OnlyTests() }
