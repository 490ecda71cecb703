package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int{F32: 4, F16: 2, I64: 8, I32: 4, U8: 1}
	for dt, want := range cases {
		if got := dt.Size(); got != want {
			t.Errorf("%s.Size() = %d, want %d", dt, got, want)
		}
	}
}

func TestDTypeStringRoundTrip(t *testing.T) {
	want := map[DType]string{F32: "f32", F16: "f16", I64: "i64", I32: "i32", U8: "u8", I8: "i8", DType(99): "dtype(99)"}
	for dt, name := range want {
		if got := dt.String(); got != name {
			t.Errorf("DType(%d).String() = %q, want %q", uint8(dt), got, name)
		}
	}
}

func TestF16RoundTripExactValues(t *testing.T) {
	// Values exactly representable in f16 must round-trip exactly.
	for _, v := range []float32{0, 1, -1, 0.5, 2, 1024, -0.25, 65504} {
		h := F16FromF32(v)
		if got := F16ToF32(h); got != v {
			t.Errorf("f16 round trip %v -> %v", v, got)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	if !math.IsInf(float64(F16ToF32(F16FromF32(float32(math.Inf(1))))), 1) {
		t.Error("+Inf should survive f16")
	}
	if !math.IsInf(float64(F16ToF32(F16FromF32(float32(math.Inf(-1))))), -1) {
		t.Error("-Inf should survive f16")
	}
	if !math.IsNaN(float64(F16ToF32(F16FromF32(float32(math.NaN()))))) {
		t.Error("NaN should survive f16")
	}
	// Overflow clamps to Inf.
	if !math.IsInf(float64(F16ToF32(F16FromF32(1e10))), 1) {
		t.Error("1e10 should overflow to +Inf in f16")
	}
	// Tiny values flush toward zero.
	if got := F16ToF32(F16FromF32(1e-10)); got != 0 {
		t.Errorf("1e-10 in f16 = %v, want 0", got)
	}
}

func TestF16RoundTripErrorBound(t *testing.T) {
	// Property: for normal-range values, f16 relative error <= 2^-11.
	f := func(v float32) bool {
		if v != v || v > 60000 || v < -60000 || (v != 0 && v < 1e-4 && v > -1e-4) {
			return true // outside the normal range under test
		}
		got := F16ToF32(F16FromF32(v))
		if v == 0 {
			return got == 0
		}
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		return rel <= 1.0/2048
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestF16Subnormals(t *testing.T) {
	// Smallest positive f16 subnormal is 2^-24.
	sub := float32(math.Ldexp(1, -24))
	h := F16FromF32(sub)
	if got := F16ToF32(h); got != sub {
		t.Errorf("subnormal round trip %v -> %v", sub, got)
	}
}

func TestNewZeroed(t *testing.T) {
	tt := New(F32, 3, 4)
	if tt.NumElements() != 12 || tt.NumBytes() != 48 {
		t.Fatalf("NumElements=%d NumBytes=%d", tt.NumElements(), tt.NumBytes())
	}
	for i, v := range tt.F32() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromBytesLengthCheck(t *testing.T) {
	if _, err := FromBytes(F32, Shape{2, 2}, make([]byte, 15)); err == nil {
		t.Error("short buffer should error")
	}
	if _, err := FromBytes(F32, Shape{2, 2}, make([]byte, 16)); err != nil {
		t.Errorf("exact buffer: %v", err)
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromF32(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.F32()[0] = 99
	if a.F32()[0] != 99 {
		t.Error("reshape should share the backing store")
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Error("reshape to wrong element count should fail")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromF32(Shape{2}, []float32{1, 2})
	b := a.Clone()
	b.F32()[0] = 5
	if a.F32()[0] != 1 {
		t.Error("clone should not share data")
	}
}

func TestAtSetAtAllDTypes(t *testing.T) {
	for _, dt := range []DType{F32, F16, I64, I32, U8} {
		tt := New(dt, 4)
		tt.SetAt(2, 7)
		if got := tt.At(2); got != 7 {
			t.Errorf("%s: At(2)=%v want 7", dt, got)
		}
	}
}

func TestToF32ToF16(t *testing.T) {
	a := FromF32(Shape{3}, []float32{1, 2.5, -3})
	h := a.ToF16()
	back := h.ToF32()
	if !AllClose(a, back, 1e-3, 1e-3) {
		t.Errorf("f16 conversion drifted: %v vs %v", a.F32(), back.F32())
	}
}

func TestAllClose(t *testing.T) {
	a := FromF32(Shape{2}, []float32{1, 2})
	b := FromF32(Shape{2}, []float32{1, 2.0001})
	if !AllClose(a, b, 1e-3, 1e-3) {
		t.Error("nearly-equal tensors should be close")
	}
	c := FromF32(Shape{2}, []float32{1, 3})
	if AllClose(a, c, 1e-3, 1e-3) {
		t.Error("different tensors should not be close")
	}
	d := FromF32(Shape{3}, []float32{1, 2, 3})
	if AllClose(a, d, 1, 1) {
		t.Error("different shapes should not be close")
	}
	nan := FromF32(Shape{2}, []float32{1, float32(math.NaN())})
	if AllClose(nan, nan, 1, 1) {
		t.Error("NaN should never compare close")
	}
}

func TestBroadcastShapes(t *testing.T) {
	got, err := BroadcastShapes(Shape{4, 1, 3}, Shape{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(Shape{4, 2, 3}) {
		t.Errorf("broadcast = %v", got)
	}
	if _, err := BroadcastShapes(Shape{3}, Shape{4}); err == nil {
		t.Error("incompatible shapes should fail")
	}
}

func TestShapeStrides(t *testing.T) {
	s := Shape{2, 3, 4}
	st := s.Strides()
	want := []int{12, 4, 1}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("strides = %v, want %v", st, want)
		}
	}
}

func TestWrapPinnedRelease(t *testing.T) {
	released := false
	buf := make([]byte, 8)
	tt, err := WrapPinned(F32, Shape{2}, buf, func() { released = true })
	if err != nil {
		t.Fatal(err)
	}
	if !tt.Pinned() {
		t.Error("tensor should report pinned")
	}
	tt.Release()
	if !released {
		t.Error("release func should run")
	}
	tt.Release() // idempotent
	// Unpinned tensors don't blow up.
	New(F32, 1).Release()
}

func TestFillAndRandN(t *testing.T) {
	a := New(F32, 10)
	a.Fill(3)
	for _, v := range a.F32() {
		if v != 3 {
			t.Fatal("fill failed")
		}
	}
	rng := rand.New(rand.NewSource(42))
	a.RandN(rng, 1)
	var sum float32
	for _, v := range a.F32() {
		sum += v
	}
	if sum == 30 {
		t.Error("RandN left the tensor unchanged")
	}
}

func TestStringForms(t *testing.T) {
	a := New(F16, 2, 3)
	if a.String() != "f16[2 3]" {
		t.Errorf("String() = %q", a.String())
	}
	m := MetaOf(a)
	if m.String() != "f16[2 3]" || m.Bytes() != 12 {
		t.Errorf("meta %q bytes %d", m.String(), m.Bytes())
	}
}
