package mat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNoConvergence is returned when an iterative eigenvalue or singular
// value routine fails to converge within its iteration budget.
var ErrNoConvergence = errors.New("mat: eigenvalue iteration did not converge")

// givens holds a complex Givens rotation:
//
//	[ c        s ] [ f ]   [ r ]
//	[ -conj(s) c ] [ g ] = [ 0 ]
//
// with real c ≥ 0 and c² + |s|² = 1.
type givens struct {
	c float64
	s complex128
}

// makeGivens computes the rotation zeroing g against f.
func makeGivens(f, g complex128) givens {
	if g == 0 {
		return givens{c: 1, s: 0}
	}
	if f == 0 {
		return givens{c: 0, s: cmplx.Conj(g) / complex(cmplx.Abs(g), 0)}
	}
	af, ag := cmplx.Abs(f), cmplx.Abs(g)
	r := math.Hypot(af, ag)
	c := af / r
	s := f / complex(af, 0) * cmplx.Conj(g) / complex(r, 0)
	return givens{c: c, s: s}
}

// SchurVectors selects how much of the unitary Schur factor Z a
// decomposition accumulates.
type SchurVectors int

const (
	// SchurLastRow accumulates only the last row of Z, which is all
	// LastComponents reads. Each rotation then costs O(1) instead of O(k).
	SchurLastRow SchurVectors = iota
	// SchurFull accumulates all of Z, as Vector requires.
	SchurFull
)

// SchurResult holds a complex Schur decomposition A = Z·T·Zᴴ with T upper
// triangular. Z is nil unless the full factor was accumulated.
type SchurResult struct {
	T *CDense
	Z *CDense
	// Values are the eigenvalues (the diagonal of T).
	Values []complex128
	// zLast is the last row of Z (aliasing Z when it is accumulated); nil
	// when no vectors were requested.
	zLast []complex128
	// small is the floor substituted for near-zero diagonal differences
	// in the eigenvector back-substitution.
	small float64
}

// newSchurResult packages a triangularized t with its (possibly partial)
// Schur vectors.
func newSchurResult(t, z *CDense, zLast []complex128) *SchurResult {
	n := t.Rows
	vals := make([]complex128, n)
	for i := 0; i < n; i++ {
		vals[i] = t.Data[i*n+i]
	}
	// Scale floor for near-singular diagonal differences.
	var tnorm float64
	for i := 0; i < n; i++ {
		for _, v := range t.Data[i*n+i : (i+1)*n] {
			tnorm += cmplx.Abs(v)
		}
	}
	small := 2.2e-16 * tnorm
	if small == 0 {
		small = 2.2e-16
	}
	return &SchurResult{T: t, Z: z, Values: vals, zLast: zLast, small: small}
}

// CSchur computes the complex Schur decomposition of the square matrix a.
// If wantZ is false, Z is nil and only T/eigenvalues are produced.
func CSchur(a *CDense, wantZ bool) (*SchurResult, error) {
	h, q := CHessenberg(a)
	var z *CDense
	var zLast []complex128
	if wantZ {
		z = q
		if n := a.Rows; n > 0 {
			zLast = q.Row(n - 1)
		}
	}
	if err := hessenbergQR(h, z); err != nil {
		return nil, err
	}
	return newSchurResult(h, z, zLast), nil
}

// HessenbergSchur computes the complex Schur decomposition of a square
// matrix that is already upper Hessenberg (entries below the first
// subdiagonal are ignored), such as the projected matrix of an Arnoldi
// sweep. It skips CSchur's Householder reduction — on Hessenberg input its
// reflectors only flip signs — and its O(k³) accumulation of Q: the QR
// iteration starts from Z = I, and want selects whether all of Z or only
// its last row is accumulated. h is not modified.
func HessenbergSchur(h *CDense, want SchurVectors) (*SchurResult, error) {
	if h.Rows != h.Cols {
		panic(fmt.Sprintf("mat: Schur of non-square %d×%d matrix", h.Rows, h.Cols))
	}
	n := h.Rows
	t := h.Clone()
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			t.Data[i*n+j] = 0
		}
	}
	var z *CDense
	var zLast []complex128
	switch want {
	case SchurLastRow:
		// The last row of Z evolves under the same column rotations as
		// the whole of Z, so a 1×n matrix started at e_{n−1}ᵀ accumulates
		// it bit for bit.
		z = NewCDense(1, n)
		if n > 0 {
			z.Data[n-1] = 1
		}
		zLast = z.Data
	case SchurFull:
		z = CEye(n)
		if n > 0 {
			zLast = z.Row(n - 1)
		}
	}
	if err := hessenbergQR(t, z); err != nil {
		return nil, err
	}
	if want == SchurLastRow {
		z = nil
	}
	return newSchurResult(t, z, zLast), nil
}

// backSubstitute solves (T − λ_k·I)·y = 0 for the eigenvector of T with
// y_k = 1 and y_i = 0 for i > k, writing y_0..y_k into y[:k+1]. Should the
// partial solution grow past 2¹⁰⁰ (a defective or nearly defective T, where
// the floored pivots compound), y is rescaled by a power of two, which
// keeps its direction exact and its entries finite.
func (s *SchurResult) backSubstitute(k int, y []complex128) {
	t := s.T.Data
	n := s.T.Cols
	lambda := t[k*n+k]
	y[k] = 1
	for i := k - 1; i >= 0; i-- {
		row := t[i*n : (i+1)*n]
		var sum complex128
		for j := i + 1; j <= k; j++ {
			sum += row[j] * y[j]
		}
		d := row[i] - lambda
		if cmplx.Abs(d) < s.small {
			d = complex(s.small, 0)
		}
		y[i] = -sum / d
		if a := cmplx.Abs(y[i]); a > 0x1p100 {
			_, e := math.Frexp(a)
			scale := complex(math.Ldexp(1, -e), 0)
			for j := i; j <= k; j++ {
				y[j] *= scale
			}
		}
	}
}

// LastComponents returns, for every eigenvalue Values[k], the modulus of
// the last component of the unit eigenvector x_k = Z·y_k/‖y_k‖ (y_k from
// back-substitution on T). Z is unitary, so ‖Z·y_k‖ = ‖y_k‖ and only the
// last row of Z enters: no eigenvector is formed. It panics unless the
// decomposition accumulated at least the last row of Z.
func (s *SchurResult) LastComponents() []float64 {
	n := len(s.Values)
	if n > 0 && s.zLast == nil {
		panic("mat: LastComponents needs Schur vectors")
	}
	out := make([]float64, n)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		s.backSubstitute(k, y)
		var last complex128
		for j, zj := range s.zLast[:k+1] {
			last += zj * y[j]
		}
		out[k] = cmplx.Abs(last) / CNorm2(y[:k+1])
	}
	return out
}

// Vector returns the unit eigenvector for Values[k]. It panics unless the
// full Schur factor Z was accumulated. Eigenvectors of defective matrices
// are best-effort.
func (s *SchurResult) Vector(k int) []complex128 {
	if s.Z == nil {
		panic("mat: Vector needs the full Schur factor")
	}
	n := s.Z.Rows
	y := make([]complex128, k+1)
	s.backSubstitute(k, y)
	// Transform back: x = Z·y and normalize.
	x := make([]complex128, n)
	for i := range x {
		var sum complex128
		for j, zij := range s.Z.Data[i*n : i*n+k+1] {
			sum += zij * y[j]
		}
		x[i] = sum
	}
	if nrm := CNorm2(x); nrm > 0 {
		CScaleVec(complex(1/nrm, 0), x)
	}
	return x
}

// hessenbergQR triangularizes the upper Hessenberg matrix h in place using
// shifted QR iterations with Givens rotations, accumulating the unitary
// transformations into the columns of z when z is non-nil. z may have any
// number of rows: each row evolves independently, so a 1×n z accumulates
// one row of the full factor.
func hessenbergQR(h *CDense, z *CDense) error {
	n := h.Rows
	if n == 0 {
		return nil
	}
	a := h.Data
	const maxIterPerEig = 40
	eps := 2.2e-16
	hi := n - 1
	iter := 0
	totalBudget := maxIterPerEig * n
	total := 0
	for hi > 0 {
		// Deflate: find lo such that h[lo, lo-1] is negligible.
		lo := hi
		for lo > 0 {
			sub := cmplx.Abs(a[lo*n+lo-1])
			if sub <= eps*(cmplx.Abs(a[(lo-1)*n+lo-1])+cmplx.Abs(a[lo*n+lo])) {
				a[lo*n+lo-1] = 0
				break
			}
			lo--
		}
		if lo == hi {
			// Eigenvalue converged at position hi.
			hi--
			iter = 0
			continue
		}
		if total >= totalBudget {
			return ErrNoConvergence
		}
		// Wilkinson shift from the trailing 2×2 of the active block.
		var shift complex128
		iter++
		total++
		if iter > 0 && iter%12 == 0 {
			// Exceptional shift to break symmetry-induced stagnation.
			shift = a[hi*n+hi] + complex(0.75*cmplx.Abs(a[hi*n+hi-1]), 0)
		} else {
			a11 := a[(hi-1)*n+hi-1]
			a12 := a[(hi-1)*n+hi]
			a21 := a[hi*n+hi-1]
			a22 := a[hi*n+hi]
			tr := a11 + a22
			det := a11*a22 - a12*a21
			disc := cmplx.Sqrt(tr*tr - 4*det)
			l1 := (tr + disc) / 2
			l2 := (tr - disc) / 2
			if cmplx.Abs(l1-a22) < cmplx.Abs(l2-a22) {
				shift = l1
			} else {
				shift = l2
			}
		}
		// One implicit single-shift QR sweep on rows/cols lo..hi: the first
		// rotation is taken from the shifted column, then the bulge is
		// chased down the subdiagonal (implicit Q theorem).
		gv := makeGivens(a[lo*n+lo]-shift, a[(lo+1)*n+lo])
		applyGivensLeft(h, gv, lo, lo+1, lo, n-1)
		top := lo + 2
		if top > hi {
			top = hi
		}
		applyGivensRight(h, gv, lo, lo+1, 0, top)
		if z != nil {
			applyGivensRight(z, gv, lo, lo+1, 0, z.Rows-1)
		}
		for k := lo + 1; k < hi; k++ {
			gv = makeGivens(a[k*n+k-1], a[(k+1)*n+k-1])
			applyGivensLeft(h, gv, k, k+1, k-1, n-1)
			a[(k+1)*n+k-1] = 0
			top = k + 2
			if top > hi {
				top = hi
			}
			applyGivensRight(h, gv, k, k+1, 0, top)
			if z != nil {
				applyGivensRight(z, gv, k, k+1, 0, z.Rows-1)
			}
		}
	}
	return nil
}

// applyGivensLeft applies the rotation to rows (r1, r2) over columns
// [cLo, cHi]: [row r1; row r2] ← G·[row r1; row r2].
func applyGivensLeft(m *CDense, g givens, r1, r2, cLo, cHi int) {
	c := complex(g.c, 0)
	ns := -cmplx.Conj(g.s)
	row1 := m.Data[r1*m.Cols+cLo : r1*m.Cols+cHi+1]
	row2 := m.Data[r2*m.Cols+cLo : r2*m.Cols+cHi+1]
	for j, a := range row1 {
		b := row2[j]
		row1[j] = c*a + g.s*b
		row2[j] = ns*a + c*b
	}
}

// applyGivensRight applies the conjugate rotation to columns (c1, c2) over
// rows [rLo, rHi]: [col c1, col c2] ← [col c1, col c2]·Gᴴ.
func applyGivensRight(m *CDense, g givens, c1, c2, rLo, rHi int) {
	c := complex(g.c, 0)
	cs, ns := cmplx.Conj(g.s), -g.s
	d := m.Data
	for i := rLo * m.Cols; i <= rHi*m.Cols; i += m.Cols {
		a := d[i+c1]
		b := d[i+c2]
		d[i+c1] = c*a + cs*b
		d[i+c2] = ns*a + c*b
	}
}

// CEigValues returns the eigenvalues of the square complex matrix a.
func CEigValues(a *CDense) ([]complex128, error) {
	res, err := CSchur(a, false)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// EigValues returns the eigenvalues of the square real matrix a as complex
// numbers (conjugate pairs for complex eigenvalues).
func EigValues(a *Dense) ([]complex128, error) {
	return CEigValues(a.ToComplex())
}

// CEig computes eigenvalues and right eigenvectors of the square complex
// matrix a. Column j of the returned matrix is a unit-norm eigenvector for
// Values[j]. Eigenvectors of defective matrices are best-effort.
func CEig(a *CDense) (values []complex128, vectors *CDense, err error) {
	res, err := CSchur(a, true)
	if err != nil {
		return nil, nil, err
	}
	n := a.Rows
	vectors = NewCDense(n, n)
	for k := 0; k < n; k++ {
		for i, v := range res.Vector(k) {
			vectors.Data[i*n+k] = v
		}
	}
	return res.Values, vectors, nil
}

// CInverseIteration refines an eigenvector of a for the approximate
// eigenvalue lambda by a few shifted inverse-power steps. v0 is the start
// vector (may be nil for a deterministic pseudo-random start). Returns the
// unit-norm eigenvector and the Rayleigh-quotient refined eigenvalue.
func CInverseIteration(a *CDense, lambda complex128, v0 []complex128, steps int) ([]complex128, complex128, error) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("mat: inverse iteration on non-square %d×%d", n, a.Cols))
	}
	shifted := a.Clone()
	// Perturb the shift slightly off the eigenvalue so the solve is stable.
	scale := a.FrobNorm()
	if scale == 0 {
		scale = 1
	}
	pert := complex(1e-10*scale, 0)
	for {
		for i := 0; i < n; i++ {
			shifted.Set(i, i, a.At(i, i)-lambda-pert)
		}
		f, err := CLUFactor(shifted)
		if err == nil {
			v := v0
			if v == nil {
				v = make([]complex128, n)
				st := uint64(0x9e3779b97f4a7c15)
				for i := range v {
					st = st*6364136223846793005 + 1442695040888963407
					v[i] = complex(float64(st>>40)/float64(1<<24)-0.5, float64(st>>33&0xffffff)/float64(1<<24)-0.5)
				}
			}
			nrm := CNorm2(v)
			if nrm == 0 {
				return nil, 0, errors.New("mat: zero start vector")
			}
			CScaleVec(complex(1/nrm, 0), v)
			for s := 0; s < steps; s++ {
				v = f.Solve(v)
				nrm = CNorm2(v)
				if nrm == 0 || math.IsInf(nrm, 0) || math.IsNaN(nrm) {
					break
				}
				CScaleVec(complex(1/nrm, 0), v)
			}
			av := a.MulVec(v)
			mu := CDot(v, av)
			return v, mu, nil
		}
		// Singular shift: widen the perturbation and retry.
		pert *= 10
		if cmplx.Abs(pert) > 1e-3*scale {
			return nil, 0, ErrSingular
		}
	}
}
