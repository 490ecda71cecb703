// Package quant implements the raw-speed tier's precision lowering
// (ROADMAP item 2): symmetric per-channel int8 weight quantization and
// f16 weight narrowing, plus the dynamic per-row activation quantizer
// the int8 matmul kernels use at execute time.
//
// The scheme is deliberately the simplest one with a provable error
// bound: symmetric linear quantization, scale = maxabs/127 per output
// channel, no zero point. Dequantized value = int8 * scale, so the
// worst-case per-element error is scale/2 — the bound the parity suite
// checks analytically (DESIGN.md §11).
package quant

import (
	"fmt"

	"genie/internal/tensor"
)

// Mode selects the weight precision tier.
type Mode uint8

const (
	Off  Mode = iota // weights stay f32
	Int8             // per-channel symmetric int8 + f32 scales
	F16              // IEEE half, no scales
)

// String implements fmt.Stringer ("off", "int8", "f16").
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Int8:
		return "int8"
	case F16:
		return "f16"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode converts a -quant flag value to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return Off, nil
	case "int8", "i8":
		return Int8, nil
	case "f16", "fp16", "half":
		return F16, nil
	}
	return Off, fmt.Errorf("quant: unknown mode %q (want int8|f16|off)", s)
}

// maxAbsCol returns the max |v| down column c of a row-major
// [rows, cols] matrix.
func maxAbsCol(w []float32, rows, cols, c int) float32 {
	var m float32
	for i := 0; i < rows; i++ {
		v := w[i*cols+c]
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

func maxAbsRow(row []float32) float32 {
	var m float32
	for _, v := range row {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// QuantizeLinear lowers a rank-2 f32 weight matrix to symmetric
// per-channel int8 along axis (0 = per row, 1 = per column). Each
// channel's scale is maxabs/127; all-zero channels get scale 1 so
// dequantization stays well-defined. The returned tensor has the same
// shape, dtype I8, and the scales attached.
func QuantizeLinear(w *tensor.Tensor, axis int) (*tensor.Tensor, error) {
	if w.DType() != tensor.F32 {
		return nil, fmt.Errorf("quant: QuantizeLinear on %s (want f32)", w.DType())
	}
	if w.Shape().Rank() != 2 {
		return nil, fmt.Errorf("quant: QuantizeLinear on rank-%d tensor (want 2)", w.Shape().Rank())
	}
	if axis != 0 && axis != 1 {
		return nil, fmt.Errorf("quant: axis %d (want 0 or 1)", axis)
	}
	rows, cols := w.Shape()[0], w.Shape()[1]
	src := w.F32()
	out := tensor.New(tensor.I8, rows, cols)
	dst := out.I8()

	nch := w.Shape()[axis]
	scales := make([]float32, nch)
	if axis == 0 {
		for r := 0; r < rows; r++ {
			scales[r] = scaleFor(maxAbsRow(src[r*cols : (r+1)*cols]))
		}
		for r := 0; r < rows; r++ {
			inv := 1 / scales[r]
			row, qrow := src[r*cols:(r+1)*cols], dst[r*cols:(r+1)*cols]
			for j, v := range row {
				qrow[j] = clampI8(v * inv)
			}
		}
	} else {
		for c := 0; c < cols; c++ {
			scales[c] = scaleFor(maxAbsCol(src, rows, cols, c))
		}
		for r := 0; r < rows; r++ {
			row, qrow := src[r*cols:(r+1)*cols], dst[r*cols:(r+1)*cols]
			for j, v := range row {
				qrow[j] = clampI8(v / scales[j])
			}
		}
	}
	if err := out.AttachScales(axis, scales); err != nil {
		return nil, err
	}
	return out, nil
}

// scaleFor maps a channel's max magnitude to its quantization scale.
// All-zero channels quantize exactly with any scale; 1 keeps the math
// finite.
func scaleFor(maxabs float32) float32 {
	if maxabs == 0 {
		return 1
	}
	return maxabs / 127
}

func clampI8(v float32) int8 {
	// Round half away from zero, clamp to the symmetric int8 range.
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return int8(v)
}

// Dequantize expands an I8 tensor with attached scales back to f32.
// Mostly a test utility: the kernels dequantize on store instead.
//
//lint:ignore deadexport test reference: the int8 round-trip oracle of the quant tests
func Dequantize(q *tensor.Tensor) (*tensor.Tensor, error) {
	if q.DType() != tensor.I8 {
		return nil, fmt.Errorf("quant: Dequantize on %s (want i8)", q.DType())
	}
	return q.ToF32(), nil
}

// QuantizeRow dynamically quantizes one f32 activation row into qrow
// (symmetric, single scale) and returns the scale. Used per execute by
// the int8 matmul: weights are quantized once offline, activations here.
func QuantizeRow(row []float32, qrow []int8) float32 {
	s := scaleFor(maxAbsRow(row))
	inv := 1 / s
	for j, v := range row {
		qrow[j] = clampI8(v * inv)
	}
	return s
}
