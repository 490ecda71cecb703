package quant

import (
	"math"
	"math/rand"
	"testing"

	"genie/internal/tensor"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"off", Off, false}, {"", Off, false},
		{"int8", Int8, false}, {"i8", Int8, false},
		{"f16", F16, false}, {"fp16", F16, false}, {"half", F16, false},
		{"int4", Off, true}, {"INT8", Off, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	for _, m := range []Mode{Off, Int8, F16} {
		if m.String() == "" {
			t.Errorf("mode %d has empty String()", m)
		}
	}
}

func TestQuantizeLinearErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := tensor.New(tensor.F32, 64, 48)
	w.RandN(rng, 0.8)

	for _, axis := range []int{0, 1} {
		q, err := QuantizeLinear(w, axis)
		if err != nil {
			t.Fatalf("axis %d: %v", axis, err)
		}
		if q.DType() != tensor.I8 || len(q.Scales()) != w.Shape()[axis] {
			t.Fatalf("axis %d: got %s with %d scales", axis, q, len(q.Scales()))
		}
		// Symmetric round-to-nearest: |w - deq(q)| <= scale/2 per element.
		for i, n := 0, w.NumElements(); i < n; i++ {
			ch := i % w.Shape()[1]
			if axis == 0 {
				ch = i / w.Shape()[1]
			}
			bound := float64(q.Scales()[ch]) / 2
			if diff := math.Abs(float64(w.At(i) - q.At(i))); diff > bound+1e-7 {
				t.Fatalf("axis %d elem %d: |%g - %g| = %g > scale/2 = %g",
					axis, i, w.At(i), q.At(i), diff, bound)
			}
		}
	}
}

func TestQuantizeLinearZeroChannel(t *testing.T) {
	w := tensor.New(tensor.F32, 4, 3)
	// Column 1 stays all-zero.
	for r := 0; r < 4; r++ {
		w.F32()[r*3] = float32(r + 1)
		w.F32()[r*3+2] = -float32(r + 1)
	}
	q, err := QuantizeLinear(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Scales()[1] != 1 {
		t.Fatalf("zero channel scale = %g, want 1", q.Scales()[1])
	}
	for r := 0; r < 4; r++ {
		if q.At(r*3+1) != 0 {
			t.Fatalf("zero channel dequantizes to %g", q.At(r*3+1))
		}
	}
}

func TestQuantizeLinearRejects(t *testing.T) {
	if _, err := QuantizeLinear(tensor.New(tensor.F16, 2, 2), 1); err == nil {
		t.Error("accepted f16 input")
	}
	if _, err := QuantizeLinear(tensor.New(tensor.F32, 2, 2, 2), 1); err == nil {
		t.Error("accepted rank-3 input")
	}
	if _, err := QuantizeLinear(tensor.New(tensor.F32, 2, 2), 2); err == nil {
		t.Error("accepted axis 2")
	}
}

func TestDequantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := tensor.New(tensor.F32, 16, 16)
	w.RandN(rng, 1.0)
	q, err := QuantizeLinear(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Dequantize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Requantizing the dequantized weights must be exact (fixed point).
	q2, err := QuantizeLinear(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := q.I8(), q2.I8()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("requantization not idempotent at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestQuantizeRow(t *testing.T) {
	row := []float32{0.5, -1.0, 0.25, 0}
	qrow := make([]int8, 4)
	s := QuantizeRow(row, qrow)
	for j, v := range row {
		got := float64(qrow[j]) * float64(s)
		if math.Abs(got-float64(v)) > float64(s)/2+1e-7 {
			t.Fatalf("elem %d: deq %g vs %g (scale %g)", j, got, v, s)
		}
	}
	zrow := make([]int8, 3)
	if s := QuantizeRow([]float32{0, 0, 0}, zrow); s != 1 {
		t.Fatalf("all-zero row scale = %g, want 1", s)
	}
}
