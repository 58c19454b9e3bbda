package hamiltonian

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/statespace"
)

// TestPopovShiftInvertEquivalence checks the p×p Popov-matrix reduction of
// the SMW capacitance solve (ShiftInvert / ShiftOp.Apply) for both
// representations, on the packed-dense and the forced sparse backend, with
// a non-symmetric D of σ_max(D) = 0.5 and 0.999 (R = DᵀD − I nearly
// singular). Three shifts per case: on the axis, off the axis at a
// RefineEig-style λ + offset, and within 1e-6 relative of a purely
// imaginary eigenvalue of the dense Hamiltonian.
//
// Every solve must have a small backward residual ‖(M−ϑI)·y − x‖ measured
// with the structured Op.Apply. The on-axis shift, the only one not within
// 1e-6 of an eigenvalue, must also agree with a dense LU solve of M − ϑI.
func TestPopovShiftInvertEquivalence(t *testing.T) {
	for _, rep := range []Representation{Scattering, Immittance} {
		for _, dnorm := range []float64{0.5, 0.999} {
			for _, backend := range []statespace.Backend{statespace.BackendPackedDense, statespace.BackendSparse} {
				name := fmt.Sprintf("%v/dnorm%g/%v", rep, dnorm, backend)
				t.Run(name, func(t *testing.T) {
					checkPopovShiftInvert(t, rep, dnorm, backend)
				})
			}
		}
	}
}

func checkPopovShiftInvert(t *testing.T, rep Representation, dnorm float64, backend statespace.Backend) {
	src, err := statespace.Generate(41, statespace.GenOptions{
		Ports: 4, Order: 28, TargetPeak: 1.08, DNorm: dnorm, GridPoints: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dimensionless frequency keeps the dense oracle's eigenvalues accurate.
	m := src.FrequencyScaled(src.MaxPoleMagnitude())
	if m.D.Sub(m.D.T()).FrobNorm() == 0 {
		t.Fatal("test needs a non-symmetric D")
	}
	m.SetBackend(backend)
	op, err := New(m, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := op.Model.ActiveBackend(); got != backend {
		t.Fatalf("backend resolved to %v, want %v", got, backend)
	}
	dense := op.Dense().ToComplex()
	vals, err := mat.CEigValues(dense)
	if err != nil {
		t.Fatal(err)
	}
	normM := dense.FrobNorm()

	// The imaginary eigenvalue and the off-axis eigenvalue with the
	// largest imaginary parts (Im > 0).
	var imagEig, offEig complex128
	for _, v := range vals {
		if imag(v) <= 0 {
			continue
		}
		if math.Abs(real(v)) <= 1e-9*cmplx.Abs(v) {
			if imag(v) > imag(imagEig) {
				imagEig = v
			}
		} else if imag(v) > imag(offEig) {
			offEig = v
		}
	}
	if imagEig == 0 || offEig == 0 {
		t.Fatalf("model lacks an imaginary (%v) or off-axis (%v) eigenvalue", imagEig, offEig)
	}
	offset := complex(1e-8*cmplx.Abs(offEig), 1e-8*cmplx.Abs(offEig))
	shifts := []struct {
		name     string
		theta    complex128
		wellCond bool
	}{
		{"on-axis", complex(0, 0.37), true},
		{"refine", offEig + offset, false},
		{"near-imag-eig", complex(0, imag(imagEig)*(1+1e-6)), false},
	}
	rng := rand.New(rand.NewSource(43))
	dim := op.Dim()
	for _, sh := range shifts {
		so, err := op.ShiftInvert(sh.theta)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		x := randCVec(rng, dim)
		y := make([]complex128, dim)
		if err := so.Apply(y, x); err != nil {
			t.Fatal(err)
		}
		so.Release()

		// Backward residual: r = (M − ϑI)·y − x, relative to
		// (‖M‖ + |ϑ|)·‖y‖.
		r := make([]complex128, dim)
		op.Apply(r, y)
		for i := range r {
			r[i] -= sh.theta*y[i] + x[i]
		}
		eta := mat.CNorm2(r) / ((normM + cmplx.Abs(sh.theta)) * mat.CNorm2(y))
		if eta > 1e-13 {
			t.Errorf("%s (ϑ=%v): backward residual %.3g", sh.name, sh.theta, eta)
		}
		if !sh.wellCond {
			continue
		}
		shifted := dense.Clone()
		for i := 0; i < dim; i++ {
			shifted.Set(i, i, shifted.At(i, i)-sh.theta)
		}
		f, err := mat.CLUFactor(shifted)
		if err != nil {
			t.Fatal(err)
		}
		want := f.Solve(x)
		diff := make([]complex128, dim)
		for i := range diff {
			diff[i] = y[i] - want[i]
		}
		if rel := mat.CNorm2(diff) / mat.CNorm2(want); rel > 1e-11 {
			t.Errorf("%s (ϑ=%v): differs from dense LU by %.3g relative", sh.name, sh.theta, rel)
		}
	}
}

// TestShiftInvertAllocsOnlyFactor pins the steady-state setup cost: with
// a recycled ShiftOp shell, ShiftInvert allocates only the p×p LU's pivot
// vector and its CLU header — the panels, the Popov matrix and the apply
// scratch are reused.
func TestShiftInvertAllocsOnlyFactor(t *testing.T) {
	for _, rep := range []Representation{Scattering, Immittance} {
		m := testModel(t, 12, 4, 24, 0.95)
		op, err := New(m, rep)
		if err != nil {
			t.Fatal(err)
		}
		theta := complex(0, 0.5*m.MaxPoleMagnitude())
		cycle := func() {
			so, err := op.ShiftInvert(theta)
			if err != nil {
				t.Fatal(err)
			}
			so.Release()
		}
		cycle() // warm the shell pool and the packed-kernel cache
		if avg := testing.AllocsPerRun(100, cycle); avg > 2 {
			t.Fatalf("%v: ShiftInvert allocates %.1f objects per call, want ≤ 2 (pivots, CLU)", rep, avg)
		}
	}
}
