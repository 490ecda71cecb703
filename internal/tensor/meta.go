package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Meta is the lightweight tensor descriptor that travels on SRG edges and
// in transport frame headers: shape, dtype, and derived byte size. It is
// the "Tensor Metadata" edge annotation from §3.1 of the paper.
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

// Equal reports descriptor equality.
func (m Meta) Equal(o Meta) bool { return m.DType == o.DType && m.Shape.Equal(o.Shape) }

// maxRank bounds decoded ranks to keep malformed input from allocating
// unbounded memory.
const maxRank = 16

// WriteTo encodes the descriptor as: u8 dtype, u8 rank, rank×u32 dims.
func (m Meta) WriteTo(w io.Writer) (int64, error) {
	if len(m.Shape) > maxRank {
		return 0, fmt.Errorf("tensor: rank %d exceeds max %d", len(m.Shape), maxRank)
	}
	buf := make([]byte, 2+4*len(m.Shape))
	buf[0] = byte(m.DType)
	buf[1] = byte(len(m.Shape))
	for i, d := range m.Shape {
		binary.LittleEndian.PutUint32(buf[2+4*i:], uint32(d))
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadMeta decodes a descriptor written by WriteTo.
//
//lint:ignore deadexport descriptor codec only tests exercise; next deadexport batch
func ReadMeta(r io.Reader) (Meta, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Meta{}, err
	}
	dt := DType(hdr[0])
	if dt > I8 {
		return Meta{}, fmt.Errorf("tensor: invalid dtype byte %d", hdr[0])
	}
	rank := int(hdr[1])
	if rank > maxRank {
		return Meta{}, fmt.Errorf("tensor: rank %d exceeds max %d", rank, maxRank)
	}
	dims := make([]byte, 4*rank)
	if _, err := io.ReadFull(r, dims); err != nil {
		return Meta{}, err
	}
	shape := make(Shape, rank)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
		if shape[i] <= 0 {
			return Meta{}, fmt.Errorf("tensor: invalid dim %d", shape[i])
		}
	}
	return Meta{DType: dt, Shape: shape}, nil
}

// EncodedLen returns the number of bytes WriteTo will produce.
//
//lint:ignore deadexport descriptor codec only tests exercise; next deadexport batch
func (m Meta) EncodedLen() int { return 2 + 4*len(m.Shape) }
