// Package hamiltonian builds the Hamiltonian matrix associated with a
// scattering (or immittance) state-space macromodel (paper Eq. 5) and
// provides fast structured operators on it:
//
//   - Apply:       y = M·x           in O(n·p)
//   - ShiftInvert: y = (M − ϑI)⁻¹·x  in O(n·p + p²) per apply after an
//     O(n·p + p³) per-shift setup (Sherman–Morrison–Woodbury, paper Eq. 6,
//     reduced to a p×p Popov-matrix factorization)
//
// The purely imaginary eigenvalues of M are the frequencies where singular
// values of H(jω) cross the unit threshold (scattering) or where the
// Hermitian part of H(jω) becomes singular (immittance), so they fully
// characterize passivity.
//
// Invariants: an Op never mutates its model; RefineEig and IsCrossing are
// deterministic (fixed internal start vectors), so refining the same
// eigenvalue twice yields the same bits — the canonical-polish guarantee
// in core builds on this.
//
// Concurrency: an Op is read-only after New and safe for concurrent use —
// Apply draws its scratch from a sync.Pool and ShiftInvert only reads the
// packed kernels. A ShiftOp carries per-shift factorization scratch and
// must stay confined to one goroutine at a time (each pool task builds or
// owns its own).
package hamiltonian

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mat"
	"repro/internal/statespace"
)

// Representation selects which passivity test the Hamiltonian encodes.
type Representation int

const (
	// Scattering tests σ_i(H(jω)) ≤ 1 (paper Eq. 3–5). Requires σ_max(D) < 1.
	Scattering Representation = iota
	// Immittance tests λ_min(H(jω) + H(jω)ᴴ) ≥ 0 for admittance/impedance
	// representations. Requires D + Dᵀ nonsingular.
	Immittance
)

// String names the representation for logs and error messages.
func (r Representation) String() string {
	switch r {
	case Scattering:
		return "scattering"
	case Immittance:
		return "immittance"
	default:
		return fmt.Sprintf("Representation(%d)", int(r))
	}
}

// ErrNotAsymptoticallyPassive is returned when the direct-coupling matrix D
// violates the strict asymptotic passivity precondition (paper Eq. 4).
var ErrNotAsymptoticallyPassive = errors.New("hamiltonian: D violates strict asymptotic passivity (σ_max(D) ≥ 1)")

// Op is the structured Hamiltonian operator M = K₀ + U·W·V with
// K₀ = blkdiag(A, −Aᵀ), U = [B 0; 0 Cᵀ], V = [C 0; 0 Bᵀ] and a 2p×2p
// coupling W determined by the representation. Read-only after
// construction; safe for concurrent use.
type Op struct {
	Model *statespace.Model
	Rep   Representation
	N     int // dynamic order n (M is 2n×2n)
	P     int // ports
	// w is the 2p×2p coupling, used by Apply and Dense only: ShiftInvert
	// works on the p×p Popov matrix instead.
	w *mat.Dense

	// half, when non-nil, is the half-size reciprocal sweep operator
	// (spec(M)² on n states instead of spec(M) on 2n). Built by NewWith
	// when the model is reciprocal and the half path is enabled; shares
	// this Op's model.
	half *HalfOp

	// applyPool recycles Apply workspaces (t, wt ∈ C^{2p}, u ∈ C^{2n}) so
	// steady-state Apply calls are allocation-free; ω_max estimation and
	// per-eigenvalue residual checks call Apply thousands of times.
	applyPool sync.Pool
	// shiftPool recycles ShiftOp shells (panels, Popov-matrix storage and
	// apply scratch; each shift computes and factors its own), so a new
	// shift reuses the last one's storage.
	shiftPool sync.Pool
}

type applyScratch struct{ t, wt, u []complex128 }

func (op *Op) getApplyScratch() *applyScratch {
	if ws, ok := op.applyPool.Get().(*applyScratch); ok {
		return ws
	}
	p2, n2 := 2*op.P, 2*op.N
	return &applyScratch{
		t:  make([]complex128, p2),
		wt: make([]complex128, p2),
		u:  make([]complex128, n2),
	}
}

// New builds the Hamiltonian operator for the model. The operator works on
// a state-balanced copy of the realization (statespace.Model.Balanced):
// the transfer function — and therefore the Hamiltonian spectrum — is
// unchanged, but the B/C scale disparity of physical macromodels, which
// would otherwise make projected eigenproblems hopelessly ill conditioned,
// is removed.
func New(m *statespace.Model, rep Representation) (*Op, error) {
	return NewWith(m, rep, NewOptions{})
}

// NewWith builds the Hamiltonian operator with explicit path options. With
// Half == HalfAuto (the default) reciprocity is detected on the source
// model — before balancing, so bit-exact symmetry of as-built models is
// seen — and, when it holds, the half-size sweep operator is attached
// (see HalfOp). HalfForce skips detection; HalfOff never attaches it.
// Under HalfAuto a half-path construction failure (e.g. a singular
// coupling) silently falls back to the full path; under HalfForce it is
// an error.
func NewWith(m *statespace.Model, rep Representation, opts NewOptions) (*Op, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	useHalf := false
	switch opts.Half {
	case HalfForce:
		useHalf = true
	case HalfAuto:
		useHalf = m.Reciprocal(opts.HalfTol)
	}
	m = m.Balanced()
	p := m.P
	var w *mat.Dense
	switch rep {
	case Scattering:
		// R = DᵀD − I, S = DDᵀ − I,
		// W = [ −R⁻¹Dᵀ  −R⁻¹ ]
		//     [  S⁻¹     DR⁻¹ ]
		dn, err := mat.Norm2Mat(m.D)
		if err != nil {
			return nil, err
		}
		if dn >= 1 {
			return nil, ErrNotAsymptoticallyPassive
		}
		d := m.D
		r := d.T().Mul(d).Sub(mat.Eye(p))
		s := d.Mul(d.T()).Sub(mat.Eye(p))
		rinv, err := mat.Inverse(r)
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: R singular: %w", err)
		}
		sinv, err := mat.Inverse(s)
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: S singular: %w", err)
		}
		w = mat.NewDense(2*p, 2*p)
		setBlock(w, 0, 0, rinv.Mul(d.T()).Scale(-1))
		setBlock(w, 0, p, rinv.Scale(-1))
		setBlock(w, p, 0, sinv)
		setBlock(w, p, p, d.Mul(rinv))
	case Immittance:
		// Q = D + Dᵀ,
		// W = [ −Q⁻¹  −Q⁻¹ ]
		//     [  Q⁻¹   Q⁻¹ ]
		q := m.D.Add(m.D.T())
		qinv, err := mat.Inverse(q)
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: D+Dᵀ singular: %w", err)
		}
		w = mat.NewDense(2*p, 2*p)
		setBlock(w, 0, 0, qinv.Scale(-1))
		setBlock(w, 0, p, qinv.Scale(-1))
		setBlock(w, p, 0, qinv)
		setBlock(w, p, p, qinv)
	default:
		return nil, fmt.Errorf("hamiltonian: unknown representation %v", rep)
	}
	op := &Op{Model: m, Rep: rep, N: m.Order(), P: p, w: w}
	if useHalf {
		h, err := newHalfOp(op)
		if err != nil {
			if opts.Half == HalfForce {
				return nil, err
			}
		} else {
			op.half = h
		}
	}
	return op, nil
}

// Half returns the half-size reciprocal sweep operator, or nil when the
// full-size path is active.
func (op *Op) Half() *HalfOp { return op.half }

// HalfSafeFraction bounds how close (relative to ω) a half-path certified
// disk may approach the origin. Squaring the spectrum costs relative
// resolution near λ = 0: for an eigenvalue at distance d from the shift
// jω, a λ-separation Δ maps to a μ-separation Δ·|λ₁+λ₂| against a μ-scale
// of d·|λ+jω| — a loss factor of roughly 2|λ|/ω when |λ| ≪ ω, which lets
// near-origin eigenvalue pairs collapse into one Ritz ghost while the
// disk still certifies completeness. Keeping the disk radius below this
// fraction of ω bounds the loss factor at 2·(1 − HalfSafeFraction), so
// sweep shifts whose disk would reach closer to the origin run on the
// full-size path instead (they are the O(log) near-origin tail of a
// sweep; the bulk keeps the half-size speedup).
const HalfSafeFraction = 0.75

// HalfRouted reports whether the sweep shift (ω, ρ₀) runs on the
// half-size path: the operator must carry one and the requested disk must
// respect HalfSafeFraction.
func (op *Op) HalfRouted(omega, rho0 float64) bool {
	return op.half != nil && rho0 < HalfSafeFraction*omega
}

// SweepTheta maps a sweep shift (ω, ρ₀) to the shift the routed path
// factors at: jω on the full path, τ = −ω² (the squared eigenvalue) on
// the half path.
func (op *Op) SweepTheta(omega, rho0 float64) complex128 {
	if op.HalfRouted(omega, rho0) {
		return complex(-(omega * omega), 0)
	}
	return complex(0, omega)
}

func setBlock(dst *mat.Dense, i0, j0 int, b *mat.Dense) {
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			dst.Set(i0+i, j0+j, b.At(i, j))
		}
	}
}

// Dim returns the dimension 2n of the Hamiltonian matrix.
func (op *Op) Dim() int { return 2 * op.N }

// applyV computes t = V·x = [C·x₁; Bᵀ·x₂], t ∈ C^{2p}.
func (op *Op) applyV(t, x []complex128) {
	n, p := op.N, op.P
	op.Model.CApplyC(t[:p], x[:n])
	op.Model.CApplyBT(t[p:2*p], x[n:2*n])
}

// applyU computes y = U·s = [B·s₁; Cᵀ·s₂], y ∈ C^{2n}.
func (op *Op) applyU(y, s []complex128) {
	n, p := op.N, op.P
	op.Model.CApplyB(y[:n], s[:p])
	op.Model.CApplyCT(y[n:2*n], s[p:2*p])
}

// applyW computes dst = W·t on a 2p complex vector. W is real, so each
// element costs two real multiplies instead of a complex×complex product.
func (op *Op) applyW(dst, t []complex128) {
	p2 := 2 * op.P
	for i := 0; i < p2; i++ {
		var re, im float64
		row := op.w.Row(i)
		for j, wij := range row[:p2] {
			tj := t[j]
			re += wij * real(tj)
			im += wij * imag(tj)
		}
		dst[i] = complex(re, im)
	}
}

// Apply computes y = M·x in O(n·p) without forming M. x and y have length
// 2n and must not alias.
func (op *Op) Apply(y, x []complex128) {
	n := op.N
	if len(x) != 2*n || len(y) != 2*n {
		panic(fmt.Sprintf("hamiltonian: Apply expects vectors of length %d", 2*n))
	}
	// y = K₀·x.
	op.Model.CApplyA(y[:n], x[:n])
	op.Model.CApplyAT(y[n:2*n], x[n:2*n])
	for i := n; i < 2*n; i++ {
		y[i] = -y[i]
	}
	// y += U·W·V·x.
	ws := op.getApplyScratch()
	op.applyV(ws.t, x)
	op.applyW(ws.wt, ws.t)
	op.applyU(ws.u, ws.wt)
	for i, v := range ws.u {
		y[i] += v
	}
	op.applyPool.Put(ws)
}

// ShiftOp is a shift-invert operator (M − ϑI)⁻¹ for one shift ϑ: the
// p×p panels H(ϑ) and Hᵀ(−ϑ), the LU-factored p×p Popov matrix Φ(ϑ) and
// private apply scratch. Each apply costs O(n·p) + O(p²). Not safe for
// concurrent use (scratch buffers); create one per goroutine. Call Release
// when done: it recycles the panels and scratch. Using a ShiftOp after
// Release is a bug.
type ShiftOp struct {
	op    *Op
	theta complex128
	phi   *mat.CLU // factored Φ(ϑ), p×p; its LU overwrites phim's storage
	phim  mat.CDense
	// h = H(ϑ), ht = Hᵀ(−ϑ), both p×p row-major (scattering Apply reads
	// them; immittance needs them only during setup).
	h, ht []complex128
	// scratch
	g, gu   []complex128 // 2n
	z, s    []complex128 // 2p
	permBuf []complex128 // p, CLU permutation gather
}

// getShiftOp returns a (pooled) ShiftOp shell for the shift theta. All
// persistent storage — panels, Φ and apply scratch — is one allocation,
// reused across shifts.
func (op *Op) getShiftOp(theta complex128) *ShiftOp {
	if so, ok := op.shiftPool.Get().(*ShiftOp); ok {
		so.theta = theta
		return so
	}
	n, p := op.N, op.P
	pp := p * p
	buf := make([]complex128, 3*pp+4*n+5*p)
	so := &ShiftOp{op: op, theta: theta}
	so.h, buf = buf[:pp], buf[pp:]
	so.ht, buf = buf[:pp], buf[pp:]
	so.phim = mat.CDense{Rows: p, Cols: p, Data: buf[:pp]}
	buf = buf[pp:]
	so.g, buf = buf[:2*n], buf[2*n:]
	so.gu, buf = buf[:2*n], buf[2*n:]
	so.z, buf = buf[:2*p], buf[2*p:]
	so.s, so.permBuf = buf[:2*p], buf[2*p:]
	return so
}

// Release returns the operator's panels and scratch to the pool. Safe on
// nil. Idempotent within one ownership cycle only — after Release the
// ShiftOp may be handed to another goroutine by the pool.
func (so *ShiftOp) Release() {
	if so == nil {
		return
	}
	so.phi = nil
	so.op.shiftPool.Put(so)
}

// ShiftInvert factors (M − ϑI)⁻¹ using the Sherman–Morrison–Woodbury form
//
//	(K₀ − ϑI + UWV)⁻¹ = G − G·U·(I + W·V·G·U)⁻¹·W·V·G,
//	G = blkdiag((A−ϑI)⁻¹, (−Aᵀ−ϑI)⁻¹)
//
// which is algebraically equivalent to paper Eq. 6 but does not require W
// to be invertible. Because G is block diagonal and U, V interleave B, C
// block-wise, V·G·U = blkdiag(X₁, −X₂) with the panels
//
//	X₁ = C·(A−ϑI)⁻¹·B,  X₂ = Bᵀ·(Aᵀ+ϑI)⁻¹·Cᵀ,
//
// each O(n·p) along the block sparsity of B. They give the transfer
// function at ±ϑ: H(ϑ) = D − X₁ and Hᵀ(−ϑ) = Dᵀ − X₂. The 2p×2p
// capacitance solve then reduces to one p×p system in the Popov matrix
//
//	scattering: Φ(ϑ) = I − H(ϑ)·Hᵀ(−ϑ)
//	immittance: Φ(ϑ) = H(ϑ) + Hᵀ(−ϑ)
//
// (DESIGN.md "The p×p Popov reduction"), so the per-shift setup is O(n·p)
// for the panels plus O(p³) to form and factor Φ. Φ is singular exactly
// when ϑ is an eigenvalue of M; ShiftInvert then fails with ErrSingular,
// as it does when ϑ coincides with an eigenvalue of A/−Aᵀ. Callers must
// Release the returned ShiftOp.
func (op *Op) ShiftInvert(theta complex128) (*ShiftOp, error) {
	so := op.getShiftOp(theta)
	h, ht := so.h, so.ht
	if err := op.Model.CResolventB(h, theta); err != nil {
		so.Release()
		return nil, fmt.Errorf("hamiltonian: shift %v hits a pole: %w", theta, err)
	}
	if err := op.Model.BTResolventCT(ht, -theta); err != nil {
		so.Release()
		return nil, fmt.Errorf("hamiltonian: shift %v hits a pole: %w", theta, err)
	}
	p := op.P
	d := op.Model.D
	for i := 0; i < p; i++ {
		drow := d.Row(i)
		hrow := h[i*p : (i+1)*p]
		htrow := ht[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			hrow[j] = complex(drow[j], 0) - hrow[j]
			htrow[j] = complex(d.At(j, i), 0) - htrow[j]
		}
	}
	phi := so.phim.Data
	switch op.Rep {
	case Scattering:
		// Φ = I − H·Hᵀ(−ϑ), accumulated row-wise against contiguous Hᵀ rows.
		for i := range phi {
			phi[i] = 0
		}
		for i := 0; i < p; i++ {
			out := phi[i*p : (i+1)*p]
			for k, hik := range h[i*p : (i+1)*p] {
				for j, v := range ht[k*p : (k+1)*p] {
					out[j] -= hik * v
				}
			}
			out[i]++
		}
	case Immittance:
		// Φ = H + Hᵀ(−ϑ).
		for i := range phi {
			phi[i] = h[i] + ht[i]
		}
	}
	f, err := mat.CLUFactorInPlace(&so.phim)
	if err != nil {
		so.Release()
		return nil, fmt.Errorf("hamiltonian: shift %v is (numerically) an eigenvalue: %w", theta, err)
	}
	so.phi = f
	return so, nil
}

// applyG computes y = G·x = [(A−ϑI)⁻¹x₁; (−Aᵀ−ϑI)⁻¹x₂] in O(n).
func (so *ShiftOp) applyG(y, x []complex128) error {
	n := so.op.N
	theta := so.theta
	if err := so.op.Model.CSolveShiftedA(y[:n], x[:n], theta); err != nil {
		return err
	}
	// (−Aᵀ − ϑI)⁻¹ = −(Aᵀ + ϑI)⁻¹ = −(Aᵀ − (−ϑ)I)⁻¹.
	if err := so.op.Model.CSolveShiftedAT(y[n:2*n], x[n:2*n], -theta); err != nil {
		return err
	}
	for i := n; i < 2*n; i++ {
		y[i] = -y[i]
	}
	return nil
}

// Theta returns the shift.
func (so *ShiftOp) Theta() complex128 { return so.theta }

// Dim returns the dimension 2n of the underlying Hamiltonian.
func (so *ShiftOp) Dim() int { return 2 * so.op.N }

// ApplyBase applies the original (non-inverted) Hamiltonian: y = M·x. It
// lets the Arnoldi layer measure eigenpair residuals in M itself
// (arnoldi.BaseOperator).
func (so *ShiftOp) ApplyBase(y, x []complex128) error {
	so.op.Apply(y, x)
	return nil
}

// Apply computes y = (M − ϑI)⁻¹·x. x and y have length 2n and may alias.
//
// With g = G·x and z = V·g, the capacitance solve s = (I + W·V·G·U)⁻¹·W·z
// runs through Φ (see ShiftInvert):
//
//	scattering: Φ·s₂ = −z₁ − H(ϑ)·z₂,  s₁ = z₂ − Hᵀ(−ϑ)·s₂
//	immittance: Φ·σ = z₁ + z₂,          s = [−σ; σ]
//
// and y = g − G·U·s.
func (so *ShiftOp) Apply(y, x []complex128) error {
	op := so.op
	n, p := op.N, op.P
	if len(x) != 2*n || len(y) != 2*n {
		panic(fmt.Sprintf("hamiltonian: ShiftOp.Apply expects vectors of length %d", 2*n))
	}
	if err := so.applyG(so.g, x); err != nil {
		return err
	}
	z, s := so.z, so.s
	op.applyV(z, so.g)
	z1, z2 := z[:p], z[p:]
	s1, s2 := s[:p], s[p:]
	switch op.Rep {
	case Scattering:
		for i := range s2 {
			s2[i] = -z1[i] - cdotu(so.h[i*p:(i+1)*p], z2)
		}
		so.phi.SolveIntoScratch(s2, s2, so.permBuf)
		for i := range s1 {
			s1[i] = z2[i] - cdotu(so.ht[i*p:(i+1)*p], s2)
		}
	case Immittance:
		for i := range s2 {
			s2[i] = z1[i] + z2[i]
		}
		so.phi.SolveIntoScratch(s2, s2, so.permBuf)
		for i, v := range s2 {
			s1[i] = -v
		}
	}
	op.applyU(so.gu, s)
	if err := so.applyG(so.gu, so.gu); err != nil {
		return err
	}
	for i := 0; i < 2*n; i++ {
		y[i] = so.g[i] - so.gu[i]
	}
	return nil
}

// cdotu returns the unconjugated dot product Σ a[i]·b[i].
func cdotu(a, b []complex128) complex128 {
	var s complex128
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
