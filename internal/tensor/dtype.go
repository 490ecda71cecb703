// Package tensor implements the dense tensor substrate used throughout
// Genie. It provides shapes, strides, dtypes, views, and binary
// serialization. Real numeric kernels live in the ops subpackage.
//
// The paper's prototype builds on PyTorch tensors; this package is the
// from-scratch stand-in that gives the lazy frontend something concrete to
// defer, the transport something concrete to move, and the backend
// something concrete to execute.
package tensor

import "fmt"

// DType identifies the element type of a tensor.
type DType uint8

// Supported element types. F16 is stored as uint16 bit patterns (IEEE 754
// half); kernels widen to float32 for arithmetic, which mirrors how
// accelerators treat fp16 accumulation.
const (
	F32 DType = iota // 32-bit IEEE float
	F16              // 16-bit IEEE float (stored as uint16 bits)
	I64              // 64-bit signed integer (token ids, indices)
	I32              // 32-bit signed integer
	U8               // 8-bit unsigned integer (images, masks)
	I8               // 8-bit signed integer (quantized weights; see AttachScales)
)

// Size returns the number of bytes per element.
func (d DType) Size() int {
	switch d {
	case F32, I32:
		return 4
	case F16:
		return 2
	case I64:
		return 8
	case U8, I8:
		return 1
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", d))
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	case F16:
		return "f16"
	case I64:
		return "i64"
	case I32:
		return "i32"
	case U8:
		return "u8"
	case I8:
		return "i8"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// F16FromF32 converts a float32 to IEEE 754 half-precision bits with
// round-to-nearest-even. Out-of-range values clamp to ±Inf.
func F16FromF32(f float32) uint16 {
	bits := f32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff

	if exp >= 0x1f { // overflow or already Inf/NaN
		if int32(bits>>23&0xff) == 0xff && mant != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf
	}
	if exp <= 0 { // subnormal or zero
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := (mant + half) >> shift
		// Round-to-nearest-even tie break.
		if mant&((half<<1)-1) == half && rounded&1 == 1 {
			rounded--
		}
		return sign | uint16(rounded)
	}
	// Normal number: round mantissa from 23 to 10 bits.
	rounded := mant + 0xfff + (mant >> 13 & 1)
	if rounded&0x800000 != 0 {
		rounded = 0
		exp++
		if exp >= 0x1f {
			return sign | 0x7c00
		}
	}
	return sign | uint16(exp)<<10 | uint16(rounded>>13)
}

// F16ToF32 converts IEEE 754 half-precision bits to float32.
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf / NaN
		return f32frombits(sign | 0x7f800000 | mant<<13)
	case exp == 0 && mant == 0:
		return f32frombits(sign)
	case exp == 0: // subnormal: renormalize
		for mant&0x400 == 0 {
			mant <<= 1
			exp--
		}
		mant &= 0x3ff
		exp++
		fallthrough
	default:
		return f32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}
