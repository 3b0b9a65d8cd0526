// Package temporal provides the time-decay kernel used by the
// time-aware ranking algorithms. Time is
// measured in years as float64; an "age" is the non-negative distance
// from the observation time (now) back to an event such as a citation
// being made.
package temporal

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadKernel reports invalid kernel parameters.
var ErrBadKernel = errors.New("temporal: invalid kernel parameters")

// Kernel maps a non-negative age (in years) to a weight in (0, 1].
// Weights must be non-increasing in age and equal 1 at age 0
// (up to the kernel's own normalisation). Negative ages are clamped
// to 0 so that articles "from the future" (clock skew, bad metadata)
// never receive more than full weight.
type Kernel interface {
	// Weight returns the decay factor for the given age in years.
	Weight(age float64) float64
	// String describes the kernel for logs and experiment tables.
	String() string
}

// Exponential is the kernel exp(-rho * age) used by CiteRank and by
// the QISA-Rank prestige and popularity signals. Rho is the decay
// rate per year; 1/rho is the mean memory horizon.
type Exponential struct {
	Rho float64
}

// NewExponential validates rho >= 0 and returns the kernel.
func NewExponential(rho float64) (Exponential, error) {
	if rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return Exponential{}, fmt.Errorf("%w: rho=%v", ErrBadKernel, rho)
	}
	return Exponential{Rho: rho}, nil
}

// Weight implements Kernel.
func (k Exponential) Weight(age float64) float64 {
	if age < 0 {
		age = 0
	}
	return math.Exp(-k.Rho * age)
}

func (k Exponential) String() string { return fmt.Sprintf("exp(rho=%g)", k.Rho) }

// Age returns now - t clamped at 0.
func Age(now, t float64) float64 {
	if t > now {
		return 0
	}
	return now - t
}
