package tensor

import "fmt"

// Meta is the lightweight tensor descriptor that travels on SRG edges:
// shape, dtype, and derived byte size. It is the "Tensor Metadata" edge
// annotation from §3.1 of the paper.
type Meta struct {
	DType DType
	Shape Shape
}

// MetaOf extracts the descriptor from a concrete tensor.
func MetaOf(t *Tensor) Meta {
	return Meta{DType: t.DType(), Shape: t.Shape().Clone()}
}

// Bytes returns the serialized payload size this descriptor implies.
func (m Meta) Bytes() int { return m.Shape.NumElements() * m.DType.Size() }

// NumElements returns the element count.
func (m Meta) NumElements() int { return m.Shape.NumElements() }

// String renders like "f32[2 3]".
func (m Meta) String() string { return fmt.Sprintf("%s%v", m.DType, m.Shape) }
