package neural

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFixRoundTrip(t *testing.T) {
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 140, -65, 0.04, 32767} {
		got := F(x).Float()
		if math.Abs(got-x) > 1.0/65536 {
			t.Errorf("F(%g).Float() = %g", x, got)
		}
	}
}

func TestFixSaturates(t *testing.T) {
	if F(1e9) != Fix(1<<31-1) {
		t.Error("positive overflow did not saturate")
	}
	if F(-1e9) != Fix(-(1 << 31)) {
		t.Error("negative overflow did not saturate")
	}
}

func TestFixMul(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{-0.04, 65, -2.6},
	}
	for _, c := range cases {
		got := F(c.a).Mul(F(c.b)).Float()
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("%g*%g = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestFixDiv(t *testing.T) {
	got := F(1).Div(F(4)).Float()
	if math.Abs(got-0.25) > 1e-4 {
		t.Errorf("1/4 = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("division by zero did not panic")
		}
	}()
	F(1).Div(0)
}

func TestFixMulCommutesProperty(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Fix(int32(a))<<8, Fix(int32(b))<<8
		return x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixMulMatchesFloatProperty(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := float64(a)/256, float64(b)/256
		got := F(x).Mul(F(y)).Float()
		return math.Abs(got-x*y) < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Div divides a by b in fixed point.
func (a Fix) Div(b Fix) Fix {
	if b == 0 {
		panic("neural: fixed-point division by zero")
	}
	return Fix((int64(a) << 16) / int64(b))
}

// Float converts back to float64.
func (f Fix) Float() float64 { return float64(f) / float64(One) }
