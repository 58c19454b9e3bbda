package arnoldi

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Real-arithmetic Arnoldi for the half-size Hamiltonian path. Every sweep
// shift there is τ = −ω² — real — and the squared operator N is real, so
// (N − τI)⁻¹ maps R^n to R^n and the whole Krylov iteration can run on
// real vectors: half the memory traffic and half the flops per apply, MGS
// projection and reorthogonalization compared to the complex path, which
// on a real operator just carries a redundant second lane. Eigenvalues of
// the projected (real) Hessenberg are still complex in general — they come
// in conjugate pairs — so H is promoted to complex and goes through the
// complex path's Ritz extraction: the Schur form of the Hessenberg H,
// residual estimates for every pair from the last row of the Schur
// vectors, and vectors lifted — as split real lanes Σ Re(yⱼ)Vⱼ and
// Σ Im(yⱼ)Vⱼ — only for the pairs that are locked or warm-start the next
// sweep. Deflation locks the real span {Re x, Im x} of each converged
// complex Ritz vector, which removes both pair members from the real
// iteration at once.
//
// SingleShiftReal and SingleShift share their certification by
// construction: both run the one S(ϑ, ρ₀) iteration, singleShift, which
// owns the convergence test, disk-radius shrink/grow rules, ghost
// purging, stagnation and exhaustion handling. Only the lane — start
// vectors, sweeps, locking, base residuals and the warm start — is real
// here.

// RealOperator is a linear operator on R^dim. Apply computes y = Op·x; x
// and y are distinct slices of length Dim().
type RealOperator interface {
	Dim() int
	Apply(y, x []float64) error
}

// RealShiftInverter abstracts a factored real operator (N − τI)⁻¹ for real
// τ (hamiltonian.HalfShiftOp satisfies it).
type RealShiftInverter interface {
	RealOperator
	Theta() complex128
}

// RealBaseOperator is optionally implemented by a RealShiftInverter that
// can also apply the original operator N; SingleShiftReal then reports
// per-eigenvalue residuals in N.
type RealBaseOperator interface {
	ApplyBase(y, x []float64) error
}

// RealFactorization holds one real Arnoldi sweep: an orthonormal real
// basis V, the projected Hessenberg H promoted to complex (so Ritz
// extraction is the complex path's, mat.HessenbergSchur with vectors lifted
// on request), the next-vector coupling hNext, and the invariant-subspace
// flag.
type RealFactorization struct {
	Steps     int
	V         [][]float64
	H         *mat.CDense
	HNext     float64
	Invariant bool
	OpApplies int
}

// RunReal performs one Arnoldi factorization of a real operator, mirroring
// Run step for step: MGS with fused project-subtract, Kahan–Parlett
// selective reorthogonalization, relative breakdown test, and the periodic
// StopEarly check on the (promoted) projected problem.
func RunReal(op RealOperator, start []float64, locked [][]float64, cfg Config) (*RealFactorization, error) {
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
	v0 := make([]float64, n)
	copy(v0, start)
	orthogonalizeReal(v0, locked)
	nrm := mat.Norm2(v0)
	if nrm < 1e-300 {
		return nil, ErrBreakdownEmpty
	}
	mat.ScaleVec(1/nrm, v0)

	v := make([][]float64, 0, d+1)
	v = append(v, v0)
	h := mat.NewDense(d, d)
	w := make([]float64, n)
	fac := &RealFactorization{}
	for j := 0; j < d; j++ {
		if err := op.Apply(w, v[j]); err != nil {
			return nil, err
		}
		fac.OpApplies++
		wNormBefore := mat.Norm2(w)
		// Deflate against locked, then MGS against the basis (fused
		// project-and-subtract kernel).
		orthogonalizeReal(w, locked)
		for i := 0; i <= j; i++ {
			h.Set(i, j, mat.ProjSub(v[i], w))
		}
		// Selective reorthogonalization (Kahan–Parlett "twice is enough"
		// criterion): a second pass is only needed when cancellation ate a
		// substantial part of the vector.
		if mat.Norm2(w) < 0.5*wNormBefore {
			orthogonalizeReal(w, locked)
			for i := 0; i <= j; i++ {
				c := mat.ProjSub(v[i], w)
				h.Set(i, j, h.At(i, j)+c)
			}
		}
		hn := mat.Norm2(w)
		fac.Steps = j + 1
		// Relative breakdown test against the column norm of H.
		var colScale float64
		for i := 0; i <= j; i++ {
			colScale += math.Abs(h.At(i, j))
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
			if cfg.StopEarly(promoteHessenberg(h, k), hn, k) {
				next := make([]float64, n)
				copy(next, w)
				mat.ScaleVec(1/hn, next)
				v = append(v, next)
				break
			}
		}
		if j+1 < d {
			h.Set(j+1, j, hn)
		}
		next := make([]float64, n)
		copy(next, w)
		mat.ScaleVec(1/hn, next)
		v = append(v, next)
	}
	fac.V = v
	fac.H = promoteHessenberg(h, fac.Steps)
	return fac, nil
}

// promoteHessenberg copies the leading k×k block of a real Hessenberg into
// a complex matrix for mat.HessenbergSchur.
func promoteHessenberg(h *mat.Dense, k int) *mat.CDense {
	hk := mat.NewCDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			hk.Set(i, j, complex(h.At(i, j), 0))
		}
	}
	return hk
}

func (f *RealFactorization) ritz() (*ritzSet, error) {
	return extractRitz(f.H, f.HNext, f.Invariant)
}

// lift forms Ritz vector i of r as its split real lanes: xr = Σ Re(yⱼ)Vⱼ
// and xi = Σ Im(yⱼ)Vⱼ, which is all that locking, the base residual and
// the restart direction read.
func (f *RealFactorization) lift(r *ritzSet, i int) (xr, xi []float64) {
	y := r.schur.Vector(i)
	n := len(f.V[0])
	xr = make([]float64, n)
	xi = make([]float64, n)
	for j := 0; j < f.Steps; j++ {
		mat.Axpy(real(y[j]), f.V[j], xr)
		mat.Axpy(imag(y[j]), f.V[j], xi)
	}
	return xr, xi
}

// RitzPairs extracts the Ritz pairs of the real factorization: complex
// eigenpairs of the promoted H lifted through the real basis. Conjugate
// Ritz values carry conjugate vectors and identical residuals.
func (f *RealFactorization) RitzPairs() ([]RitzPair, error) {
	if f.Steps == 0 {
		return nil, nil
	}
	r, err := f.ritz()
	if err != nil {
		return nil, err
	}
	out := make([]RitzPair, len(r.values))
	for i, mu := range r.values {
		xr, xi := f.lift(r, i)
		x := make([]complex128, len(xr))
		for a := range x {
			x[a] = complex(xr[a], xi[a])
		}
		out[i] = RitzPair{Value: mu, Residual: r.residuals[i], Vector: x}
	}
	return out, nil
}

// orthogonalizeReal removes the components of w along each unit vector in q.
func orthogonalizeReal(w []float64, q [][]float64) {
	for _, u := range q {
		mat.ProjSub(u, w)
	}
}

// RandomStartReal fills a deterministic random real unit vector.
func RandomStartReal(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	nrm := mat.Norm2(v)
	if nrm > 0 {
		mat.ScaleVec(1/nrm, v)
	}
	return v
}

// lockRealSpan appends the orthonormalized real span {xr, xi} of a complex
// Ritz vector xr + i·xi to the locked set. For a conjugate Ritz pair both
// members share the same real span, so the second member's parts deflate
// to (numerical) zero and are skipped — the pair costs two locked vectors
// total, exactly the two complex vectors the full path would lock. Real
// Ritz values (arbitrary complex phase) contribute one direction.
func lockRealSpan(locked [][]float64, xr, xi []float64) [][]float64 {
	for _, part := range [2][]float64{xr, xi} {
		v := make([]float64, len(part))
		copy(v, part)
		orthogonalizeReal(v, locked)
		// The Ritz vector has unit norm, so a genuinely new direction
		// keeps O(1) mass; 1e-6 absolute separates that from deflation
		// residue.
		if nrm := mat.Norm2(v); nrm > 1e-6 {
			mat.ScaleVec(1/nrm, v)
			locked = append(locked, v)
		}
	}
	return locked
}

// realRestartDirection reduces a complex Ritz vector xr + i·xi to a real
// restart direction: whichever of its lanes carries more mass
// (deterministic, and nonzero whenever the vector is).
func realRestartDirection(xr, xi []float64) []float64 {
	if mat.Norm2(xi) > mat.Norm2(xr) {
		return xi
	}
	return xr
}

// SingleShiftReal runs the restarted, deflated shift-invert Arnoldi
// iteration of SingleShift on a real operator, with identical parameters,
// certification rules and result semantics. inv.Theta() must be real
// (imaginary part zero); the returned Ritz values are complex as usual.
func SingleShiftReal(inv RealShiftInverter, rho0 float64, params SingleShiftParams) (*SingleShiftResult, error) {
	return singleShift(&realLane{inv: inv}, inv.Theta(), rho0, params)
}

// realLane is SingleShiftReal's lane: real Krylov vectors, locked as the
// real span of each converged complex Ritz vector.
type realLane struct {
	inv       RealShiftInverter
	locked    [][]float64
	warmStart []float64
	fac       *RealFactorization
	ritz      *ritzSet
}

func (l *realLane) sweep(cfg Config) (*ritzSet, int, bool, error) {
	start := RandomStartReal(cfg.Rng, l.inv.Dim())
	if l.warmStart != nil {
		// Explicit restart toward the closest unconverged Ritz vector,
		// with a small random component to escape invariant traps.
		for i := range start {
			start[i] = l.warmStart[i] + 0.02*start[i]
		}
	}
	// Drop the last sweep before running the next one, so that only one
	// basis is live at a time.
	l.fac, l.ritz, l.warmStart = nil, nil, nil
	fac, err := RunReal(l.inv, start, l.locked, cfg)
	if err != nil {
		return nil, 0, false, err
	}
	r, err := fac.ritz()
	if err != nil {
		return nil, 0, false, err
	}
	l.fac, l.ritz = fac, r
	return r, fac.OpApplies, fac.Invariant, nil
}

func (l *realLane) lock(i int, lambda complex128, wantResid bool) float64 {
	xr, xi := l.fac.lift(l.ritz, i)
	l.locked = lockRealSpan(l.locked, xr, xi)
	if !wantResid {
		return 0
	}
	return baseResidualReal(l.inv, lambda, xr, xi)
}

func (l *realLane) warm(i int) {
	l.warmStart = nil
	if i >= 0 {
		l.warmStart = realRestartDirection(l.fac.lift(l.ritz, i))
	}
}

// baseResidualReal computes ‖N·x − μ·x‖ for a complex Ritz pair of a real
// operator, x = xr + i·xi, via two real applies (N·xr and N·xi); x must
// have unit norm. Returns 0 when the base operator is unavailable.
func baseResidualReal(inv RealShiftInverter, mu complex128, xr, xi []float64) float64 {
	bo, ok := inv.(RealBaseOperator)
	if !ok {
		return 0
	}
	n := len(xr)
	yr := make([]float64, n)
	yi := make([]float64, n)
	if err := bo.ApplyBase(yr, xr); err != nil {
		return 0
	}
	if err := bo.ApplyBase(yi, xi); err != nil {
		return 0
	}
	mr, mi := real(mu), imag(mu)
	var ss float64
	for i := 0; i < n; i++ {
		dr := yr[i] - (mr*xr[i] - mi*xi[i])
		di := yi[i] - (mr*xi[i] + mi*xr[i])
		ss += dr*dr + di*di
	}
	return math.Sqrt(ss)
}
