package arnoldi

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// denseRealOp wraps a dense real matrix as a RealOperator.
type denseRealOp struct{ m *mat.Dense }

func (d denseRealOp) Dim() int { return d.m.Rows }
func (d denseRealOp) Apply(y, x []float64) error {
	copy(y, d.m.MulVec(x))
	return nil
}

// denseRealShiftInv is a dense (A − τI)⁻¹ for a real A and real τ.
type denseRealShiftInv struct {
	f   *mat.LU
	tau float64
	n   int
}

func newDenseRealShiftInv(t *testing.T, a *mat.Dense, tau float64) *denseRealShiftInv {
	t.Helper()
	s := a.Clone()
	for i := 0; i < a.Rows; i++ {
		s.Set(i, i, s.At(i, i)-tau)
	}
	f, err := mat.LUFactor(s)
	if err != nil {
		t.Fatal(err)
	}
	return &denseRealShiftInv{f: f, tau: tau, n: a.Rows}
}

func (d *denseRealShiftInv) Dim() int          { return d.n }
func (d *denseRealShiftInv) Theta() complex128 { return complex(d.tau, 0) }
func (d *denseRealShiftInv) Apply(y, x []float64) error {
	copy(y, d.f.Solve(x))
	return nil
}

func randomRMat(rng *rand.Rand, n int) *mat.Dense {
	a := mat.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// TestLazyRitzMatchesRitzPairs pins the lazy extraction of SingleShift and
// SingleShiftReal to the eager RitzPairs: the values and residual
// estimates they certify with, and every vector they lift, are
// bit-identical to RitzPairs' for both factorizations — including the
// invariant (lucky breakdown) case.
func TestLazyRitzMatchesRitzPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, tc := range []struct {
		n, dim int
	}{{80, 20}, {12, 12}} {
		a := randomCMat(rng, tc.n)
		fac, err := Run(denseOp{a}, RandomStart(rng, tc.n), nil, Config{MaxDim: tc.dim, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		r, err := fac.ritz()
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := fac.RitzPairs()
		if err != nil {
			t.Fatal(err)
		}
		if tc.n == tc.dim && !fac.Invariant {
			t.Fatalf("n=%d: full-dimension sweep did not reach an invariant subspace", tc.n)
		}
		if err := sameRitz(r, pairs, func(i int) []complex128 { return fac.lift(r, i) }); err != nil {
			t.Errorf("complex n=%d d=%d (invariant=%v): %v", tc.n, tc.dim, fac.Invariant, err)
		}

		ra := randomRMat(rng, tc.n)
		rfac, err := RunReal(denseRealOp{ra}, RandomStartReal(rng, tc.n), nil, Config{MaxDim: tc.dim, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := rfac.ritz()
		if err != nil {
			t.Fatal(err)
		}
		rpairs, err := rfac.RitzPairs()
		if err != nil {
			t.Fatal(err)
		}
		liftReal := func(i int) []complex128 {
			xr, xi := rfac.lift(rr, i)
			x := make([]complex128, len(xr))
			for a := range x {
				x[a] = complex(xr[a], xi[a])
			}
			return x
		}
		if err := sameRitz(rr, rpairs, liftReal); err != nil {
			t.Errorf("real n=%d d=%d (invariant=%v): %v", tc.n, tc.dim, rfac.Invariant, err)
		}
	}
}

func sameRitz(r *ritzSet, pairs []RitzPair, lift func(int) []complex128) error {
	if len(r.values) != len(pairs) || len(r.residuals) != len(pairs) {
		return fmt.Errorf("%d values / %d residuals, RitzPairs has %d", len(r.values), len(r.residuals), len(pairs))
	}
	for i, p := range pairs {
		if r.values[i] != p.Value || r.residuals[i] != p.Residual {
			return fmt.Errorf("pair %d: (%v, %v) vs RitzPairs (%v, %v)", i, r.values[i], r.residuals[i], p.Value, p.Residual)
		}
		x := lift(i)
		if len(x) != len(p.Vector) {
			return fmt.Errorf("pair %d: vector length %d vs %d", i, len(x), len(p.Vector))
		}
		for a := range x {
			if x[a] != p.Vector[a] {
				return fmt.Errorf("pair %d: vector[%d] = %v vs RitzPairs %v", i, a, x[a], p.Vector[a])
			}
		}
	}
	return nil
}

// TestSingleShiftDiskCompleteOracle checks the certificate of SingleShift
// and SingleShiftReal against the dense oracle on 30 seeded random
// operators each: every eigenvalue of the operator (mat.CEigValues) inside
// the returned disk |λ − ϑ| < Radius must be among the returned
// eigenvalues, within 1e-8 relative. SingleShift runs on dense complex
// matrices at complex shifts, SingleShiftReal on dense real matrices at
// real shifts (conjugate pairs in the spectrum).
//
// The disk boundary is resolved only as well as the eigenvalues are, so
// an eigenvalue within 1e-8 relative of it counts as on it, not inside.
// That case is real: when NWanted splits two equidistant eigenvalues (on
// the real path, every conjugate pair is equidistant from the real shift)
// the shrink rule puts ρ at their common distance, and which member ends
// up inside is decided by rounding.
func TestSingleShiftDiskCompleteOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 20 + rng.Intn(141)
		scale := math.Sqrt(float64(n))
		rho0 := (0.1 + 0.4*rng.Float64()) * scale
		params := SingleShiftParams{NWanted: 3 + rng.Intn(4), MaxDim: 30, Seed: seed + 1}

		a := randomCMat(rng, n)
		theta := complex(scale*(2*rng.Float64()-1), scale*(2*rng.Float64()-1))
		res, err := SingleShift(newDenseShiftInv(t, a, theta), rho0, params)
		if err != nil {
			t.Fatalf("seed %d complex: %v", seed, err)
		}
		want, err := mat.CEigValues(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := diskComplete(res, want); err != nil {
			t.Errorf("seed %d complex (n=%d, ϑ=%v): %v", seed, n, theta, err)
		}

		ra := randomRMat(rng, n)
		tau := scale * (2*rng.Float64() - 1)
		rres, err := SingleShiftReal(newDenseRealShiftInv(t, ra, tau), rho0, params)
		if err != nil {
			t.Fatalf("seed %d real: %v", seed, err)
		}
		rwant, err := mat.CEigValues(ra.ToComplex())
		if err != nil {
			t.Fatal(err)
		}
		if err := diskComplete(rres, rwant); err != nil {
			t.Errorf("seed %d real (n=%d, τ=%g): %v", seed, n, tau, err)
		}
	}
}

// diskComplete reports the first oracle eigenvalue inside the certified
// disk of res that res does not return within 1e-8 relative.
func diskComplete(res *SingleShiftResult, all []complex128) error {
	for _, v := range all {
		if cmplx.Abs(v-res.Theta) >= res.Radius*(1-1e-8) {
			continue
		}
		tol := 1e-8 * math.Max(1, cmplx.Abs(v))
		found := false
		for _, g := range res.Eigenvalues {
			if cmplx.Abs(g-v) <= tol {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("eigenvalue %v (dist %g) inside certified ρ=%g not returned (got %v)",
				v, cmplx.Abs(v-res.Theta), res.Radius, res.Eigenvalues)
		}
	}
	return nil
}

// ritzBenchOp is a cheap banded operator on C^n (and R^n): diagonal plus
// a weak cyclic coupling, enough to give the Krylov space a generic H.
type ritzBenchOp struct{ d []float64 }

func (o ritzBenchOp) Dim() int { return len(o.d) }
func (o ritzBenchOp) Apply(y, x []complex128) error {
	n := len(x)
	for i := range x {
		y[i] = complex(o.d[i], 0)*x[i] + 0.1*x[(i+1)%n]
	}
	return nil
}

type ritzBenchRealOp struct{ ritzBenchOp }

func (o ritzBenchRealOp) Apply(y, x []float64) error {
	n := len(x)
	for i := range x {
		y[i] = o.d[i]*x[i] + 0.1*x[(i+1)%n]
	}
	return nil
}

// BenchmarkRitzExtract measures the Ritz extraction layer on one k = 60
// sweep of a dim-2000 operator, complex and real: "all" lifts every pair
// (RitzPairs), "lazy" extracts values and residuals and lifts six pairs,
// the typical per-sweep demand of SingleShift and SingleShiftReal (locked
// pairs plus the warm start).
func BenchmarkRitzExtract(b *testing.B) {
	const n, k, lifted = 2000, 60, 6
	rng := rand.New(rand.NewSource(41))
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	cfg := Config{MaxDim: k, Rng: rng}
	fac, err := Run(ritzBenchOp{d}, RandomStart(rng, n), nil, cfg)
	if err != nil || fac.Steps != k {
		b.Fatalf("complex sweep: steps %d, %v", fac.Steps, err)
	}
	rfac, err := RunReal(ritzBenchRealOp{ritzBenchOp{d}}, RandomStartReal(rng, n), nil, cfg)
	if err != nil || rfac.Steps != k {
		b.Fatalf("real sweep: steps %d, %v", rfac.Steps, err)
	}
	b.Run("complex/all", func(b *testing.B) {
		for b.Loop() {
			if _, err := fac.RitzPairs(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("complex/lazy", func(b *testing.B) {
		for b.Loop() {
			r, err := fac.ritz()
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < lifted; j++ {
				fac.lift(r, j)
			}
		}
	})
	b.Run("real/all", func(b *testing.B) {
		for b.Loop() {
			if _, err := rfac.RitzPairs(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real/lazy", func(b *testing.B) {
		for b.Loop() {
			r, err := rfac.ritz()
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < lifted; j++ {
				rfac.lift(r, j)
			}
		}
	})
}
