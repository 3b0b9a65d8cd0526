package sparse

import "fmt"

// Permutation is a validated bijection on [0, n) relating an original
// node order to a solver (permuted) order: fwd[orig] = permuted and
// inv[permuted] = orig. It is immutable after construction and safe
// for concurrent readers.
//
// A nil *Permutation is valid everywhere and means the identity: the
// Applied/Restored conveniences return their input unchanged, which
// costs a corpus already in solver order nothing.
type Permutation struct {
	fwd []int32
	inv []int32
}

// NewPermutation validates fwd as a bijection on [0, len(fwd)) and
// returns the permutation. The slice is copied, not retained.
func NewPermutation(fwd []int32) (*Permutation, error) {
	n := len(fwd)
	p := &Permutation{
		fwd: append([]int32(nil), fwd...),
		inv: make([]int32, n),
	}
	seen := make([]bool, n)
	for u, nu := range p.fwd {
		if int(nu) < 0 || int(nu) >= n || seen[nu] {
			return nil, fmt.Errorf("sparse: permutation is not a bijection at %d -> %d", u, nu)
		}
		seen[nu] = true
		p.inv[nu] = int32(u)
	}
	return p, nil
}

// Len returns the number of elements the permutation acts on. A nil
// permutation has length 0.
func (p *Permutation) Len() int {
	if p == nil {
		return 0
	}
	return len(p.fwd)
}

// Fwd returns the original→permuted map. The slice aliases internal
// storage and must not be modified. It is nil for a nil permutation.
func (p *Permutation) Fwd() []int32 {
	if p == nil {
		return nil
	}
	return p.fwd
}

// Inv returns the permuted→original map. The slice aliases internal
// storage and must not be modified. It is nil for a nil permutation.
func (p *Permutation) Inv() []int32 {
	if p == nil {
		return nil
	}
	return p.inv
}

// Apply scatters src (original order) into dst (permuted order):
// dst[fwd[i]] = src[i]. The slices must have length Len() and must not
// alias.
func (p *Permutation) Apply(dst, src []float64) {
	for i, nu := range p.fwd {
		dst[nu] = src[i]
	}
}

// Restore gathers src (permuted order) back into dst (original
// order): dst[i] = src[fwd[i]]. The slices must have length Len() and
// must not alias.
func (p *Permutation) Restore(dst, src []float64) {
	for i, nu := range p.fwd {
		dst[i] = src[nu]
	}
}

// Applied returns src mapped into permuted order. A nil permutation
// returns src itself (no copy); otherwise a fresh slice is returned.
func (p *Permutation) Applied(src []float64) []float64 {
	if p == nil {
		return src
	}
	dst := make([]float64, len(src))
	p.Apply(dst, src)
	return dst
}

// Restored returns src mapped back into original order. A nil
// permutation returns src itself (no copy); otherwise a fresh slice is
// returned.
func (p *Permutation) Restored(src []float64) []float64 {
	if p == nil {
		return src
	}
	dst := make([]float64, len(src))
	p.Restore(dst, src)
	return dst
}
