package mat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortComplex sorts eigenvalues by real part, then imaginary part, so
// spectra can be compared set-wise.
func sortComplex(v []complex128) {
	sort.Slice(v, func(i, j int) bool {
		if real(v[i]) != real(v[j]) {
			return real(v[i]) < real(v[j])
		}
		return imag(v[i]) < imag(v[j])
	})
}

func spectraMatch(got, want []complex128, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]complex128(nil), got...)
	w := append([]complex128(nil), want...)
	sortComplex(g)
	sortComplex(w)
	// Greedy matching after sort can fail on ties; use full bipartite
	// greedy: for each want, find the closest unused got.
	used := make([]bool, len(g))
	for _, wv := range w {
		best, bi := math.Inf(1), -1
		for i, gv := range g {
			if used[i] {
				continue
			}
			if d := cmplx.Abs(gv - wv); d < best {
				best, bi = d, i
			}
		}
		if bi < 0 || best > tol {
			return false
		}
		used[bi] = true
	}
	return true
}

func TestCHessenbergForm(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{1, 2, 3, 6, 15} {
		a := randCDense(rng, n, n)
		h, q := CHessenberg(a)
		// Similarity: a = Q H Qᴴ.
		if !q.Mul(h).Mul(q.H()).Equalish(a, 1e-10) {
			t.Fatalf("n=%d: QHQᴴ != A", n)
		}
		// Unitarity of Q.
		if !q.H().Mul(q).Equalish(CEye(n), 1e-10) {
			t.Fatalf("n=%d: Q not unitary", n)
		}
		// Hessenberg structure.
		for i := 2; i < n; i++ {
			for j := 0; j < i-1; j++ {
				if h.At(i, j) != 0 {
					t.Fatalf("n=%d: H[%d,%d] = %v != 0", n, i, j, h.At(i, j))
				}
			}
		}
	}
}

func TestCEigDiagonal(t *testing.T) {
	d := NewCDense(3, 3)
	want := []complex128{complex(1, 2), complex(-3, 0), complex(0, -5)}
	for i, v := range want {
		d.Set(i, i, v)
	}
	got, err := CEigValues(d)
	if err != nil {
		t.Fatal(err)
	}
	if !spectraMatch(got, want, 1e-12) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCEigKnown2x2(t *testing.T) {
	// [[0, 1], [-1, 0]] has eigenvalues ±i.
	a := NewCDense(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, -1)
	got, err := CEigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{complex(0, 1), complex(0, -1)}
	if !spectraMatch(got, want, 1e-12) {
		t.Fatalf("got %v, want ±i", got)
	}
}

func TestEigRealMatrixConjugatePairs(t *testing.T) {
	// Real matrices have spectra closed under conjugation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := randDense(rng, n, n)
		vals, err := EigValues(a)
		if err != nil {
			return false
		}
		conj := make([]complex128, len(vals))
		for i, v := range vals {
			conj[i] = cmplx.Conj(v)
		}
		return spectraMatch(vals, conj, 1e-7*(1+a.FrobNorm()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEigTraceAndDetInvariants(t *testing.T) {
	// Sum of eigenvalues = trace; product = det.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randDense(rng, n, n)
		vals, err := EigValues(a)
		if err != nil {
			return false
		}
		var sum, prod complex128 = 0, 1
		for _, v := range vals {
			sum += v
			prod *= v
		}
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		lu, err := LUFactor(a)
		var det float64
		if err == nil {
			det = lu.Det()
		}
		scale := 1 + a.FrobNorm()
		if cmplx.Abs(sum-complex(tr, 0)) > 1e-8*scale {
			return false
		}
		if err == nil && cmplx.Abs(prod-complex(det, 0)) > 1e-6*(1+math.Abs(det)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSchurDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 4, 9, 20} {
		a := randCDense(rng, n, n)
		res, err := CSchur(a, true)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// A = Z T Zᴴ.
		if !res.Z.Mul(res.T).Mul(res.Z.H()).Equalish(a, 1e-8*(1+a.FrobNorm())) {
			t.Fatalf("n=%d: ZTZᴴ != A", n)
		}
		// Z unitary.
		if !res.Z.H().Mul(res.Z).Equalish(CEye(n), 1e-10) {
			t.Fatalf("n=%d: Z not unitary", n)
		}
		// T upper triangular.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(res.T.At(i, j)) > 1e-9*(1+a.FrobNorm()) {
					t.Fatalf("n=%d: T[%d,%d] = %v not negligible", n, i, j, res.T.At(i, j))
				}
			}
		}
	}
}

func TestCEigVectorsResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{2, 5, 12} {
		a := randCDense(rng, n, n)
		vals, vecs, err := CEig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := 0; k < n; k++ {
			v := make([]complex128, n)
			for i := range v {
				v[i] = vecs.At(i, k)
			}
			av := a.MulVec(v)
			CAxpy(-vals[k], v, av) // av ← A v − λ v
			if res := CNorm2(av); res > 1e-7*(1+a.FrobNorm()) {
				t.Fatalf("n=%d: eigenpair %d residual %v", n, k, res)
			}
		}
	}
}

func TestCInverseIterationRefines(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 10
	a := randCDense(rng, n, n)
	vals, err := CEigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb an eigenvalue and recover it by inverse iteration.
	approx := vals[0] + complex(1e-4, -1e-4)
	v, mu, err := CInverseIteration(a, approx, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(mu-vals[0]) > 1e-8*(1+cmplx.Abs(vals[0])) {
		t.Fatalf("refined eigenvalue %v, want %v", mu, vals[0])
	}
	av := a.MulVec(v)
	CAxpy(-mu, v, av)
	if res := CNorm2(av); res > 1e-8*(1+a.FrobNorm()) {
		t.Fatalf("eigenvector residual %v", res)
	}
}

func TestEigCompanionMatrixRoots(t *testing.T) {
	// Companion matrix of z³ − 6z² + 11z − 6 has roots 1, 2, 3.
	a := DenseFromSlice(3, 3, []float64{
		6, -11, 6,
		1, 0, 0,
		0, 1, 0,
	})
	got, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 2, 3}
	if !spectraMatch(got, want, 1e-8) {
		t.Fatalf("got %v, want 1,2,3", got)
	}
}

func TestHessenbergQREmptyAndTiny(t *testing.T) {
	if _, err := CEigValues(NewCDense(0, 0)); err != nil {
		t.Fatalf("0×0: %v", err)
	}
	one := NewCDense(1, 1)
	one.Set(0, 0, complex(3, 4))
	v, err := CEigValues(one)
	if err != nil || v[0] != complex(3, 4) {
		t.Fatalf("1×1: %v %v", v, err)
	}
}

// randHessenberg returns a k×k upper Hessenberg matrix with Gaussian
// entries: complex, or real promoted to complex (conjugate eigenvalue
// pairs) when realOnly is set.
func randHessenberg(rng *rand.Rand, k int, realOnly bool) *CDense {
	h := NewCDense(k, k)
	for i := 0; i < k; i++ {
		for j := max(i-1, 0); j < k; j++ {
			if realOnly {
				h.Set(i, j, complex(rng.NormFloat64(), 0))
			} else {
				h.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return h
}

// jordanBlock returns the k×k Jordan block for λ (λ on the diagonal, ones
// on the superdiagonal): defective, and already triangular.
func jordanBlock(k int, lambda complex128) *CDense {
	h := NewCDense(k, k)
	for i := 0; i < k; i++ {
		h.Set(i, i, lambda)
		if i+1 < k {
			h.Set(i, i+1, 1)
		}
	}
	return h
}

// eigCondition returns κ_k = ‖u‖·‖y‖ for eigenvalue k of the triangular
// factor of s, where y and uᴴ are the right and left eigenvectors of T
// normalized to y_k = u_k = 1 (so uᴴy = 1): the first-order sensitivity of
// Values[k] to a perturbation of the matrix. +Inf when it overflows.
func eigCondition(s *SchurResult, k int) float64 {
	n := len(s.Values)
	y := make([]complex128, k+1)
	s.backSubstitute(k, y)
	u := make([]complex128, n)
	u[k] = 1
	lambda := s.Values[k]
	for j := k + 1; j < n; j++ {
		var sum complex128
		for i := k; i < j; i++ {
			sum += u[i] * s.T.At(i, j)
		}
		d := s.T.At(j, j) - lambda
		if cmplx.Abs(d) < s.small {
			d = complex(s.small, 0)
		}
		u[j] = -sum / d
	}
	kappa := CNorm2(u) * CNorm2(y)
	if math.IsNaN(kappa) || kappa > 1e200 {
		return math.Inf(1)
	}
	return kappa
}

// matchSpectrum pairs every got[i] with the nearest unused want[j],
// tightest tolerance first (a well-conditioned eigenvalue must not lose
// its partner to a loosely checked neighbour), and returns the pairing,
// or an error naming an eigenvalue farther than tol[i] from every unused
// want.
func matchSpectrum(got, want []complex128, tol []float64) ([]int, error) {
	if len(got) != len(want) {
		return nil, fmt.Errorf("%d eigenvalues, want %d", len(got), len(want))
	}
	order := make([]int, len(got))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tol[order[a]] < tol[order[b]] })
	used := make([]bool, len(want))
	match := make([]int, len(got))
	for _, i := range order {
		g := got[i]
		best, bj := math.Inf(1), -1
		for j, w := range want {
			if d := cmplx.Abs(g - w); !used[j] && d < best {
				best, bj = d, j
			}
		}
		if bj < 0 || best > tol[i] {
			return nil, fmt.Errorf("eigenvalue %d = %v: nearest reference %g away, tol %g", i, g, best, tol[i])
		}
		used[bj] = true
		match[i] = bj
	}
	return match, nil
}

// checkHessenbergSchur runs the differential checks of HessenbergSchur on
// the upper Hessenberg h against CSchur/CEig, which reduce h again with
// Householder reflectors before the same QR iteration:
//
//   - the eigenvalues match CSchur's as multisets within 1e-12·‖H‖_F;
//   - LastComponents matches |last row of CEig's vectors| within 1e-10,
//     and the last-row-only accumulation reproduces the full one bit for
//     bit;
//   - every Vector(k) has unit norm and ‖H·x − λ·x‖ ≤ 1e-12·‖H‖_F.
//
// It also checks backward stability, which holds whatever the
// conditioning: Z is unitary and Z·T·Zᴴ reproduces H within 1e-12·‖H‖_F,
// so Values are exactly the spectrum, multiplicities included, of a
// matrix that close to H.
//
// With condScaled, the two comparisons against CSchur/CEig are scaled by
// the condition number κ_k of each eigenvalue, and skipped where they are
// ill-posed: κ_k > 1e4, another eigenvalue closer than 1e-3·‖H‖_F, or an
// eigenvector condition κ_k·‖H‖_F/gap_k > 1e4. Byte-built fuzz inputs are
// often defective, and two backward-stable paths then legitimately split a
// multiple eigenvalue differently, by up to O(ε^(1/m)·‖H‖).
func checkHessenbergSchur(h *CDense, condScaled bool) error {
	n := h.Rows
	orig := h.Clone()
	full, err := HessenbergSchur(h, SchurFull)
	if err != nil {
		return fmt.Errorf("HessenbergSchur: %v", err)
	}
	if !h.Equalish(orig, 0) {
		return fmt.Errorf("HessenbergSchur modified its input")
	}
	lastOnly, err := HessenbergSchur(h, SchurLastRow)
	if err != nil {
		return fmt.Errorf("HessenbergSchur(last row): %v", err)
	}
	if lastOnly.Z != nil {
		return fmt.Errorf("last-row decomposition exposes a full Z")
	}
	wantVals, wantVecs, err := CEig(h)
	if err != nil {
		return fmt.Errorf("CEig: %v", err)
	}
	hNorm := h.FrobNorm()
	base := 1e-12 * hNorm
	if base == 0 {
		base = 1e-300
	}
	if d := full.Z.H().Mul(full.Z).Sub(CEye(n)).FrobNorm(); d > 1e-12 {
		return fmt.Errorf("Z not unitary: ‖ZᴴZ − I‖ = %g", d)
	}
	if d := full.Z.Mul(full.T).Mul(full.Z.H()).Sub(h).FrobNorm(); d > base {
		return fmt.Errorf("‖Z·T·Zᴴ − H‖ = %g > %g", d, base)
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if full.T.At(i, j) != 0 {
				return fmt.Errorf("T[%d,%d] = %v below the diagonal", i, j, full.T.At(i, j))
			}
		}
	}

	valTol := make([]float64, n)
	vecTol := make([]float64, n)
	for k := range valTol {
		valTol[k], vecTol[k] = base, 1e-10
		if !condScaled {
			continue
		}
		kappa := eigCondition(full, k)
		gap := math.Inf(1)
		for j, mu := range full.Values {
			if j != k {
				gap = math.Min(gap, cmplx.Abs(mu-full.Values[k]))
			}
		}
		valTol[k] *= math.Max(1, kappa)
		if kappa > 1e4 || gap < 1e-3*hNorm {
			valTol[k] = math.Inf(1)
		}
		if r := kappa * hNorm / gap; !(r <= 1e4) {
			vecTol[k] = math.Inf(1)
		}
	}
	match, err := matchSpectrum(full.Values, wantVals, valTol)
	if err != nil {
		return err
	}
	for k, v := range lastOnly.Values {
		if v != full.Values[k] {
			return fmt.Errorf("last-row eigenvalue %d = %v, full %v", k, v, full.Values[k])
		}
	}

	lastFull := full.LastComponents()
	last := lastOnly.LastComponents()
	for k := range last {
		if last[k] != lastFull[k] {
			return fmt.Errorf("last-row accumulation: component %d = %v, full Z gives %v", k, last[k], lastFull[k])
		}
		if d := math.Abs(last[k] - cmplx.Abs(wantVecs.At(n-1, match[k]))); d > vecTol[k] {
			return fmt.Errorf("last component %d: %v vs CEig %v (diff %g)", k, last[k], cmplx.Abs(wantVecs.At(n-1, match[k])), d)
		}
	}

	for k, lambda := range full.Values {
		x := full.Vector(k)
		if d := math.Abs(CNorm2(x) - 1); d > 1e-12 {
			return fmt.Errorf("vector %d: norm off by %g", k, d)
		}
		if d := math.Abs(cmplx.Abs(x[n-1]) - last[k]); d > 1e-10 {
			return fmt.Errorf("vector %d: last component %v, LastComponents %v", k, cmplx.Abs(x[n-1]), last[k])
		}
		r := h.MulVec(x)
		CAxpy(-lambda, x, r)
		if res := CNorm2(r); res > base {
			return fmt.Errorf("vector %d: residual %g > %g", k, res, base)
		}
	}
	return nil
}

func TestHessenbergSchurMatchesCSchur(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, k := range []int{1, 2, 3, 10, 60} {
		for rep := 0; rep < 4; rep++ {
			cases := map[string]*CDense{
				"complex": randHessenberg(rng, k, false),
				"real":    randHessenberg(rng, k, true),
				"jordan":  jordanBlock(k, complex(rng.NormFloat64(), rng.NormFloat64())),
			}
			// Exact-zero subdiagonals split H into already-deflated blocks.
			split := randHessenberg(rng, k, rep%2 == 1)
			for i := 1; i < k; i += 3 {
				split.Set(i, i-1, 0)
			}
			cases["deflated"] = split
			for name, h := range cases {
				if err := checkHessenbergSchur(h, false); err != nil {
					t.Errorf("k=%d %s #%d: %v", k, name, rep, err)
				}
			}
		}
	}
}

func TestHessenbergSchurEmpty(t *testing.T) {
	for _, want := range []SchurVectors{SchurLastRow, SchurFull} {
		s, err := HessenbergSchur(NewCDense(0, 0), want)
		if err != nil || len(s.Values) != 0 || len(s.LastComponents()) != 0 {
			t.Fatalf("0×0 (%d): %v %v", want, s, err)
		}
	}
}

// FuzzHessenbergSchur decodes bytes into a small upper Hessenberg matrix
// (k ≤ 8; entries in [−8, 8) on a 1/16 grid, so exact zeros, repeated
// eigenvalues and defective blocks are common) and runs the differential
// checks of TestHessenbergSchurMatchesCSchur with condition-scaled
// tolerances. Finite input must never panic.
func FuzzHessenbergSchur(f *testing.F) {
	f.Add([]byte{3, 0, 16, 0, 32, 0, 48, 0, 16, 0, 0, 0, 16, 0})
	f.Add([]byte{5, 1, 0, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16})
	f.Add([]byte{7, 0, 200, 17, 3, 99, 250, 1, 128, 127, 64, 5, 9, 33, 77, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%8
		realOnly := data[1]&1 == 1
		data = data[2:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			v := float64(int8(data[0])) / 16
			data = data[1:]
			return v
		}
		h := NewCDense(k, k)
		for i := 0; i < k; i++ {
			for j := max(i-1, 0); j < k; j++ {
				re := next()
				if realOnly {
					h.Set(i, j, complex(re, 0))
				} else {
					h.Set(i, j, complex(re, next()))
				}
			}
		}
		if _, err := CSchur(h, false); err != nil {
			return // outside the QR iteration's budget on either path
		}
		if err := checkHessenbergSchur(h, true); err != nil {
			t.Fatalf("%v\nH = %v", err, h.Data)
		}
	})
}
