// Package tmut is genie-lint test fixture data for the
// tensor-immutability analyzer. Its pretend path (genie/internal/tmut)
// is outside the kernel packages, so every backing-store write is a
// finding.
package tmut

import "genie/internal/tensor"

// scribble writes straight through a raw view.
func scribble(t *tensor.Tensor) {
	t.F32()[0] = 1 // want "write into a tensor's backing store"
}

// scribbleViaLocal reaches the store through a view-bound local.
func scribbleViaLocal(t *tensor.Tensor) {
	d := t.I64()
	d[2] = 9 // want "write into a tensor's backing store"
	d[3]++   // want "write into a tensor's backing store"
}

// overwrite clobbers the store wholesale.
func overwrite(t *tensor.Tensor, src []byte) {
	copy(t.Bytes(), src) // want "copy into a tensor's backing store"
}

// overwriteRows copies into a window of the store: a slice of a view
// is still the view.
func overwriteRows(t *tensor.Tensor, src []float32, at int) {
	copy(t.F32()[at:], src) // want "copy into a tensor's backing store"
}

// overwriteViaLocal is the local-bound form of the same.
func overwriteViaLocal(t *tensor.Tensor, src []byte) {
	b := t.Bytes()
	copy(b, src) // want "copy into a tensor's backing store"
}

// mutateAPI uses the mutating half of the tensor API in library code.
func mutateAPI(t *tensor.Tensor) {
	t.Fill(0)       // want "tensor.Fill mutates a tensor in library code"
	t.SetAt(0, 1.5) // want "tensor.SetAt mutates a tensor in library code"
}

// reads are always fine.
func reads(t *tensor.Tensor, dst []float32) float32 {
	copy(dst, t.F32())
	copy(dst[1:], t.F32()[1:])
	v := t.F32()[0]
	return v + t.At(1)
}

// freshLocal builds a new tensor from values without touching an
// existing store; construction is not mutation.
func freshLocal(vals []float32) *tensor.Tensor {
	return tensor.FromF32(tensor.Shape{len(vals)}, vals)
}

// ignored carries a justified suppression.
func ignored(t *tensor.Tensor) {
	//lint:ignore tensormut fixture; scratch tensor never escapes this frame
	t.F32()[0] = 3
}
