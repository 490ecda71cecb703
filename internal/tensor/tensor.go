package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"unsafe"
)

// Tensor is a dense, row-major, contiguous n-dimensional array. The backing
// store is a raw byte slice so that the transport layer can send tensors
// with zero copies: Bytes() exposes the exact wire representation.
//
// Tensors created through a transport.BufferPool live in "pinned" buffers
// (the DPDK-managed-host-memory analogue from §3.4 of the paper); the pool
// hands the tensor a release func so the buffer can be recycled.
type Tensor struct {
	shape   Shape
	dtype   DType
	data    []byte
	pinned  bool
	release func()

	// Per-channel quantization metadata, present only on I8 tensors
	// produced by quant.QuantizeLinear: the real value of element e in
	// channel c along qaxis is int8(e) * scales[c]. Nil scales means the
	// tensor is plain int8 data with no dequantization semantics.
	scales []float32
	qaxis  uint8

	// kcache holds a kernel-built acceleration structure derived from the
	// (immutable) element data — see KernelCache. It is deliberately not
	// copied by Clone/Reshape and never serialized: it is a pure cache the
	// owning kernel can rebuild from Bytes() at any time.
	kcache atomic.Pointer[any]
}

// New allocates a zeroed tensor of the given dtype and shape.
func New(dt DType, shape ...int) *Tensor {
	s := Shape(shape)
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{
		shape: s.Clone(),
		dtype: dt,
		data:  make([]byte, s.NumElements()*dt.Size()),
	}
}

// FromBytes wraps an existing byte slice (no copy). len(data) must equal
// shape.NumElements()*dt.Size().
func FromBytes(dt DType, shape Shape, data []byte) (*Tensor, error) {
	want := shape.NumElements() * dt.Size()
	if len(data) != want {
		return nil, fmt.Errorf("tensor: byte length %d does not match %s%v (want %d)",
			len(data), dt, shape, want)
	}
	return &Tensor{shape: shape.Clone(), dtype: dt, data: data}, nil
}

// FromF32 builds an F32 tensor from values (copied).
func FromF32(shape Shape, values []float32) *Tensor {
	if shape.NumElements() != len(values) {
		panic(fmt.Sprintf("tensor: %d values for shape %v", len(values), shape))
	}
	t := New(F32, shape...)
	copy(t.F32(), values)
	return t
}

// FromI64 builds an I64 tensor from values (copied).
func FromI64(shape Shape, values []int64) *Tensor {
	if shape.NumElements() != len(values) {
		panic(fmt.Sprintf("tensor: %d values for shape %v", len(values), shape))
	}
	t := New(I64, shape...)
	copy(t.I64(), values)
	return t
}

// Full allocates a tensor with every element set to v. It is the
// construction-time alternative to Fill for code outside the kernel
// packages, where mutating an existing tensor is off-limits (genie-lint
// tensormut): the tensor is born with the value instead of written
// after the fact.
func Full(dt DType, v float32, shape ...int) *Tensor {
	t := New(dt, shape...)
	t.Fill(v)
	return t
}

// Scalar returns a rank-0 F32 tensor holding v.
func Scalar(v float32) *Tensor {
	t := New(F32)
	t.F32()[0] = v
	return t
}

// WrapPinned wraps buf as a pinned tensor owned by a buffer pool; release
// is invoked by Release().
func WrapPinned(dt DType, shape Shape, buf []byte, release func()) (*Tensor, error) {
	t, err := FromBytes(dt, shape, buf)
	if err != nil {
		return nil, err
	}
	t.pinned = true
	t.release = release
	return t, nil
}

// Shape returns the tensor's shape (callers must not mutate it).
func (t *Tensor) Shape() Shape { return t.shape }

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return t.shape.NumElements() }

// NumBytes returns the size of the backing store in bytes.
func (t *Tensor) NumBytes() int { return len(t.data) }

// Pinned reports whether the tensor lives in network-ready pinned memory.
func (t *Tensor) Pinned() bool { return t.pinned }

// Release returns a pinned tensor's buffer to its pool. Safe to call on
// unpinned tensors (no-op). The tensor must not be used afterwards.
func (t *Tensor) Release() {
	if t.release != nil {
		r := t.release
		t.release = nil
		t.data = nil
		r()
	}
}

// Bytes exposes the raw backing store. This IS the wire format: dtype and
// shape travel in the frame header, the payload is this slice verbatim.
func (t *Tensor) Bytes() []byte { return t.data }

// F32 reinterprets the backing store as []float32. Panics on dtype
// mismatch.
func (t *Tensor) F32() []float32 {
	t.mustBe(F32)
	if len(t.data) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&t.data[0])), t.NumElements())
}

// I64 reinterprets the backing store as []int64.
func (t *Tensor) I64() []int64 {
	t.mustBe(I64)
	if len(t.data) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&t.data[0])), t.NumElements())
}

// I32 reinterprets the backing store as []int32.
func (t *Tensor) I32() []int32 {
	t.mustBe(I32)
	if len(t.data) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&t.data[0])), t.NumElements())
}

// I8 reinterprets the backing store as []int8.
func (t *Tensor) I8() []int8 {
	t.mustBe(I8)
	if len(t.data) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&t.data[0])), t.NumElements())
}

// AttachScales installs per-channel dequantization scales on an I8
// tensor: the value of element e in channel c along axis is
// int8(e)*scales[c]. len(scales) must equal shape[axis]. The scales
// travel with the tensor through Clone, serialization, and the wire.
func (t *Tensor) AttachScales(axis int, scales []float32) error {
	if t.dtype != I8 {
		return fmt.Errorf("tensor: scales on %s tensor (only i8 is quantized)", t.dtype)
	}
	if axis < 0 || axis >= t.shape.Rank() {
		return fmt.Errorf("tensor: quant axis %d out of range for %v", axis, t.shape)
	}
	if len(scales) != t.shape[axis] {
		return fmt.Errorf("tensor: %d scales for axis %d of %v (want %d)",
			len(scales), axis, t.shape, t.shape[axis])
	}
	t.scales = scales
	t.qaxis = uint8(axis)
	return nil
}

// Scales returns the per-channel dequantization scales (nil when the
// tensor is not quantized). Callers must not mutate the slice.
func (t *Tensor) Scales() []float32 { return t.scales }

// QuantAxis returns the axis Scales() applies along (0 when unscaled).
func (t *Tensor) QuantAxis() int { return int(t.qaxis) }

// KernelCache returns the kernel acceleration structure attached to this
// tensor, invoking build to create it on first use. Kernels use it to
// amortize data-layout transforms (e.g. the packed int8 decode layout)
// across calls on long-lived tensors such as model weights. build must
// derive its result purely from the tensor's immutable contents; under a
// race several builds may run, but exactly one result wins and is
// returned to everyone thereafter.
func (t *Tensor) KernelCache(build func() any) any {
	if p := t.kcache.Load(); p != nil {
		return *p
	}
	v := build()
	if !t.kcache.CompareAndSwap(nil, &v) {
		if p := t.kcache.Load(); p != nil {
			return *p
		}
	}
	return v
}

// channelOf maps a flat index to its channel along the quant axis.
func (t *Tensor) channelOf(i int) int {
	stride := 1
	for d := t.shape.Rank() - 1; d > int(t.qaxis); d-- {
		stride *= t.shape[d]
	}
	return (i / stride) % t.shape[t.qaxis]
}

// F16 reinterprets the backing store as raw half-precision bit patterns.
func (t *Tensor) F16() []uint16 {
	t.mustBe(F16)
	if len(t.data) == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&t.data[0])), t.NumElements())
}

func (t *Tensor) mustBe(dt DType) {
	if t.dtype != dt {
		panic(fmt.Sprintf("tensor: dtype is %s, not %s", t.dtype, dt))
	}
}

// At returns element i (flat index) widened to float32, for any dtype.
func (t *Tensor) At(i int) float32 {
	switch t.dtype {
	case F32:
		return t.F32()[i]
	case F16:
		return F16ToF32(t.F16()[i])
	case I64:
		return float32(t.I64()[i])
	case I32:
		return float32(t.I32()[i])
	case U8:
		return float32(t.data[i])
	case I8:
		v := float32(int8(t.data[i]))
		if t.scales != nil {
			v *= t.scales[t.channelOf(i)]
		}
		return v
	}
	panic("tensor: unknown dtype")
}

// SetAt stores v (narrowed as needed) at flat index i.
func (t *Tensor) SetAt(i int, v float32) {
	switch t.dtype {
	case F32:
		t.F32()[i] = v
	case F16:
		t.F16()[i] = F16FromF32(v)
	case I64:
		t.I64()[i] = int64(v)
	case I32:
		t.I32()[i] = int32(v)
	case U8:
		t.data[i] = byte(v)
	case I8:
		t.data[i] = byte(int8(v))
	default:
		panic("tensor: unknown dtype")
	}
}

// Clone deep-copies the tensor into unpinned memory.
func (t *Tensor) Clone() *Tensor {
	out := New(t.dtype, t.shape...)
	copy(out.data, t.data)
	if t.scales != nil {
		out.scales = append([]float32(nil), t.scales...)
		out.qaxis = t.qaxis
	}
	return out
}

// Reshape returns a new tensor header sharing the backing store with a new
// shape of equal element count. Quantization scales carry over only when
// the new shape keeps the quant axis dimension intact; otherwise the
// channel mapping is meaningless and the scales are dropped.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	s := Shape(shape)
	if s.NumElements() != t.NumElements() {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, t.NumElements(), s, s.NumElements())
	}
	out := &Tensor{shape: s.Clone(), dtype: t.dtype, data: t.data, pinned: t.pinned}
	if t.scales != nil && int(t.qaxis) < s.Rank() && s[t.qaxis] == len(t.scales) {
		out.scales, out.qaxis = t.scales, t.qaxis
	}
	return out, nil
}

// ToF32 returns an F32 copy of the tensor, converting elementwise.
func (t *Tensor) ToF32() *Tensor {
	if t.dtype == F32 {
		return t.Clone()
	}
	out := New(F32, t.shape...)
	dst := out.F32()
	for i := range dst {
		dst[i] = t.At(i)
	}
	return out
}

// ToF16 returns an F16 copy of the tensor.
func (t *Tensor) ToF16() *Tensor {
	out := New(F16, t.shape...)
	dst := out.F16()
	for i := range dst {
		dst[i] = F16FromF32(t.At(i))
	}
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i, n := 0, t.NumElements(); i < n; i++ {
		t.SetAt(i, v)
	}
}

// RandN fills the tensor with pseudo-normal values (mean 0, stddev sd)
// from rng, used for deterministic weight initialization in tests and
// examples.
func (t *Tensor) RandN(rng *rand.Rand, sd float32) {
	for i, n := 0, t.NumElements(); i < n; i++ {
		t.SetAt(i, float32(rng.NormFloat64())*sd)
	}
}

// AllClose reports whether two tensors have the same shape and elementwise
// |a-b| <= atol + rtol*|b|.
//
//lint:ignore deadexport test reference: the float comparison every kernel test uses
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !a.shape.Equal(b.shape) {
		return false
	}
	for i, n := 0, a.NumElements(); i < n; i++ {
		va, vb := float64(a.At(i)), float64(b.At(i))
		if math.IsNaN(va) || math.IsNaN(vb) {
			return false
		}
		if math.Abs(va-vb) > atol+rtol*math.Abs(vb) {
			return false
		}
	}
	return true
}

// String renders a compact description like "f32[2 3]".
func (t *Tensor) String() string {
	return fmt.Sprintf("%s%v", t.dtype, t.shape)
}

func f32bits(f float32) uint32     { return *(*uint32)(unsafe.Pointer(&f)) }
func f32frombits(b uint32) float32 { return *(*float32)(unsafe.Pointer(&b)) }
