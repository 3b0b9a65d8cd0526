package temporal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExponential(t *testing.T) {
	k, err := NewExponential(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w := k.Weight(0); w != 1 {
		t.Errorf("Weight(0) = %v", w)
	}
	if w := k.Weight(2); math.Abs(w-math.Exp(-1)) > 1e-15 {
		t.Errorf("Weight(2) = %v, want e^-1", w)
	}
	if w := k.Weight(-3); w != 1 {
		t.Errorf("negative age not clamped: %v", w)
	}
}

func TestExponentialValidation(t *testing.T) {
	for _, rho := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(rho); err == nil {
			t.Errorf("NewExponential(%v) accepted", rho)
		}
	}
	if _, err := NewExponential(0); err != nil {
		t.Errorf("rho=0 rejected: %v", err)
	}
}

func TestAge(t *testing.T) {
	if a := Age(2020, 2015); a != 5 {
		t.Errorf("Age = %v", a)
	}
	if a := Age(2020, 2025); a != 0 {
		t.Errorf("future Age = %v, want 0", a)
	}
}

func TestKernelStrings(t *testing.T) {
	exp, _ := NewExponential(0.5)
	var k Kernel = exp
	if got, want := k.String(), "exp(rho=0.5)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Property: the kernel is non-increasing in age and bounded in (0,1].
func TestQuickKernelsMonotone(t *testing.T) {
	exp, _ := NewExponential(0.3)
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		wa, wb := exp.Weight(a), exp.Weight(b)
		return wb <= wa+1e-12 && wa >= 0 && wa <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
