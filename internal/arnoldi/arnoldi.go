// Package arnoldi implements the restarted, deflated shift-invert Arnoldi
// process of the DATE'11 paper (Sec. III): a Krylov eigensolver on the
// structured operator (M − ϑI)⁻¹ that stabilizes a small number n_ϑ of
// Hamiltonian eigenvalues closest to the shift ϑ, together with a certified
// disk radius ρ such that the returned set contains every eigenvalue in
// C_{ϑ,ρ} = {s : |s − ϑ| < ρ}.
//
// Invariants: the disk certificate is what the multi-shift scheduler's
// coverage guarantee rests on — SingleShift may shrink ρ, never report a
// radius containing unreturned eigenvalues. All randomness flows from the
// caller-provided seed (SingleShiftParams.Seed / Config.Rng), so a call is
// a pure function of (operator, parameters): repeated runs are
// bit-identical, which the pool scheduler depends on.
//
// Concurrency: the package holds no global state. Each SingleShift /
// LargestMagnitude call owns its operator, workspace and RNG for the
// duration of the call; concurrent calls are safe as long as they use
// distinct Operator instances (core's pool runs one shift per worker).
package arnoldi

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/mat"
)

// Operator is a linear operator on C^dim. Apply computes y = Op·x; x and y
// are distinct slices of length Dim().
type Operator interface {
	Dim() int
	Apply(y, x []complex128) error
}

// RitzPair is one approximate eigenpair of the operator.
type RitzPair struct {
	Value    complex128 // Ritz value μ
	Residual float64    // ‖Op·x − μ·x‖ estimate (|h_{d+1,d}·y_d|)
	Vector   []complex128
}

// Config controls one Arnoldi factorization sweep.
type Config struct {
	// MaxDim is the Krylov subspace dimension d (paper: 60).
	MaxDim int
	// Tol is the relative residual threshold for Ritz convergence.
	Tol float64
	// Rng drives the random start vectors; must not be shared across
	// goroutines.
	Rng *rand.Rand
	// CheckEvery, when positive, evaluates StopEarly every CheckEvery
	// steps so a sweep can end as soon as the caller has what it needs
	// (the projected problem is tiny compared to the basis updates).
	CheckEvery int
	// StopEarly receives the current projected Hessenberg matrix, the
	// next-vector coupling h_{j+1,j}, and the step count; returning true
	// terminates the sweep at that dimension.
	StopEarly func(h *mat.CDense, hNext float64, steps int) bool
}

func (c *Config) setDefaults() {
	if c.MaxDim == 0 {
		c.MaxDim = 60
	}
	if c.Tol == 0 {
		c.Tol = 1e-9
	}
	if c.Rng == nil {
		c.Rng = rand.New(rand.NewSource(1))
	}
}

// ErrBreakdownEmpty is returned when the start vector lies entirely in the
// locked subspace and no Krylov direction remains.
var ErrBreakdownEmpty = errors.New("arnoldi: start vector fully deflated")

// Factorization holds the result of one Arnoldi sweep: an orthonormal basis
// V of the Krylov space (deflated against the locked vectors), the
// projected Hessenberg matrix H (dim steps×steps), the next-vector coupling
// hNext = h_{d+1,d}, and whether an invariant subspace was hit (lucky
// breakdown: the Ritz values are then exact for the deflated operator).
type Factorization struct {
	Steps     int
	V         [][]complex128
	H         *mat.CDense
	HNext     float64
	Invariant bool
	OpApplies int
}

// Run performs one Arnoldi factorization of op with the given start vector,
// orthogonalizing every basis vector against locked (modified Gram-Schmidt
// with one reorthogonalization pass).
func Run(op Operator, start []complex128, locked [][]complex128, cfg Config) (*Factorization, error) {
	cfg.setDefaults()
	n := op.Dim()
	if len(start) != n {
		panic(fmt.Sprintf("arnoldi: start vector length %d, want %d", len(start), n))
	}
	d := cfg.MaxDim
	if lim := n - len(locked); d > lim {
		d = lim
	}
	if d <= 0 {
		return nil, ErrBreakdownEmpty
	}
	v0 := mat.CCopy(start)
	orthogonalize(v0, locked)
	nrm := mat.CNorm2(v0)
	if nrm < 1e-300 {
		return nil, ErrBreakdownEmpty
	}
	mat.CScaleVec(complex(1/nrm, 0), v0)

	v := make([][]complex128, 0, d+1)
	v = append(v, v0)
	h := mat.NewCDense(d, d)
	w := make([]complex128, n)
	fac := &Factorization{}
	for j := 0; j < d; j++ {
		if err := op.Apply(w, v[j]); err != nil {
			return nil, err
		}
		fac.OpApplies++
		wNormBefore := mat.CNorm2(w)
		// Deflate against locked, then MGS against the basis (fused
		// project-and-subtract kernel).
		orthogonalize(w, locked)
		for i := 0; i <= j; i++ {
			h.Set(i, j, mat.CProjSub(v[i], w))
		}
		// Selective reorthogonalization (Kahan–Parlett "twice is enough"
		// criterion): a second pass is only needed when cancellation ate a
		// substantial part of the vector.
		if mat.CNorm2(w) < 0.5*wNormBefore {
			orthogonalize(w, locked)
			for i := 0; i <= j; i++ {
				c := mat.CProjSub(v[i], w)
				h.Set(i, j, h.At(i, j)+c)
			}
		}
		hn := mat.CNorm2(w)
		fac.Steps = j + 1
		// Relative breakdown test against the column norm of H.
		var colScale float64
		for i := 0; i <= j; i++ {
			colScale += cmplx.Abs(h.At(i, j))
		}
		if hn <= 1e-12*(colScale+1e-300) {
			fac.Invariant = true
			fac.HNext = 0
			break
		}
		fac.HNext = hn
		// Periodic early-exit check on the projected problem.
		if cfg.StopEarly != nil && cfg.CheckEvery > 0 && (j+1)%cfg.CheckEvery == 0 && j+1 < d {
			k := j + 1
			hk := mat.NewCDense(k, k)
			for a := 0; a < k; a++ {
				for b := 0; b < k; b++ {
					hk.Set(a, b, h.At(a, b))
				}
			}
			if cfg.StopEarly(hk, hn, k) {
				next := mat.CCopy(w)
				mat.CScaleVec(complex(1/hn, 0), next)
				v = append(v, next)
				break
			}
		}
		if j+1 < d {
			h.Set(j+1, j, complex(hn, 0))
		}
		next := mat.CCopy(w)
		mat.CScaleVec(complex(1/hn, 0), next)
		v = append(v, next)
	}
	fac.V = v
	// Trim H to the achieved size.
	k := fac.Steps
	hk := mat.NewCDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			hk.Set(i, j, h.At(i, j))
		}
	}
	fac.H = hk
	return fac, nil
}

// ritzSet is the Ritz extraction of one sweep, shared by Factorization and
// RealFactorization. Arnoldi hands over H already upper Hessenberg, so its
// Schur form comes straight from the QR iteration (mat.HessenbergSchur).
// The values and residual estimates of all k pairs follow from T and the
// last row of Z alone; a projected eigenvector y is formed, and lifted
// through the basis, only for the pairs a caller asks for.
type ritzSet struct {
	values    []complex128
	residuals []float64 // |h_{d+1,d}·y_d| for the unit eigenvector y of H
	schur     *mat.SchurResult
}

// extractRitz computes the Ritz values and residual estimates of the
// projected Hessenberg h; invariant zeroes every residual (lucky breakdown:
// the Ritz values are exact for the deflated operator).
func extractRitz(h *mat.CDense, hNext float64, invariant bool) (*ritzSet, error) {
	s, err := mat.HessenbergSchur(h, mat.SchurFull)
	if err != nil {
		return nil, err
	}
	res := s.LastComponents()
	for i := range res {
		if invariant {
			res[i] = 0
		} else {
			res[i] *= hNext
		}
	}
	return &ritzSet{values: s.Values, residuals: res, schur: s}, nil
}

func (f *Factorization) ritz() (*ritzSet, error) {
	return extractRitz(f.H, f.HNext, f.Invariant)
}

// lift forms Ritz vector i of r: x = Σ yⱼVⱼ.
func (f *Factorization) lift(r *ritzSet, i int) []complex128 {
	y := r.schur.Vector(i)
	x := make([]complex128, len(f.V[0]))
	for j := 0; j < f.Steps; j++ {
		mat.CAxpy(y[j], f.V[j], x)
	}
	return x
}

// RitzPairs extracts the Ritz pairs of the factorization: eigenpairs of the
// projected H lifted back through the basis.
func (f *Factorization) RitzPairs() ([]RitzPair, error) {
	if f.Steps == 0 {
		return nil, nil
	}
	r, err := f.ritz()
	if err != nil {
		return nil, err
	}
	out := make([]RitzPair, len(r.values))
	for i, mu := range r.values {
		out[i] = RitzPair{Value: mu, Residual: r.residuals[i], Vector: f.lift(r, i)}
	}
	return out, nil
}

// orthogonalize removes the components of w along each (unit) vector in q.
func orthogonalize(w []complex128, q [][]complex128) {
	for _, u := range q {
		mat.CProjSub(u, w)
	}
}

// newRng builds a deterministic source for restart vectors.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RandomStart fills a deterministic random complex unit vector.
func RandomStart(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	nrm := mat.CNorm2(v)
	if nrm > 0 {
		mat.CScaleVec(complex(1/nrm, 0), v)
	}
	return v
}

// LargestMagnitude estimates the largest-modulus eigenvalue of op by a
// restarted Arnoldi iteration on op itself (no inversion). Used to obtain
// the search bound ω_max (paper Sec. IV-A). relTol is the relative change
// threshold between restarts.
func LargestMagnitude(op Operator, cfg Config, restarts int, relTol float64) (complex128, error) {
	cfg.setDefaults()
	if restarts <= 0 {
		restarts = 6
	}
	if relTol == 0 {
		relTol = 1e-6
	}
	var best complex128
	start := RandomStart(cfg.Rng, op.Dim())
	for r := 0; r < restarts; r++ {
		fac, err := Run(op, start, nil, cfg)
		if err != nil {
			return 0, err
		}
		ritz, err := fac.ritz()
		if err != nil {
			return 0, err
		}
		top := -1
		var topValue complex128
		for i, mu := range ritz.values {
			if cmplx.Abs(mu) > cmplx.Abs(topValue) {
				top, topValue = i, mu
			}
		}
		if top < 0 {
			return 0, errors.New("arnoldi: no Ritz pairs extracted")
		}
		if r > 0 && math.Abs(cmplx.Abs(topValue)-cmplx.Abs(best)) <= relTol*cmplx.Abs(topValue) {
			return topValue, nil
		}
		best = topValue
		start = fac.lift(ritz, top) // restart in the dominant direction
		if fac.Invariant {
			break
		}
	}
	return best, nil
}
