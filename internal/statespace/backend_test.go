package statespace

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// randSparsifiedModel builds a random model and zeroes a fraction of its
// residue entries, producing the port-local C patterns the sparse backend
// targets. density 1 keeps C fully dense.
func randSparsifiedModel(rng *rand.Rand, p int, density float64) *Model {
	m := randModel(rng, p)
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		for i := 0; i < p; i++ {
			for j := 0; j < mOrd; j++ {
				if rng.Float64() >= density {
					col.C.Set(i, j, 0)
				}
			}
		}
	}
	return m
}

// TestSparseKernelEquivalence property-checks every sparse C-touching
// kernel against the packed-dense backend on the same model, across
// p = 1…8 and random sparsity patterns, at 1e-12. The A/B kernels are
// backend-independent, so the C surface is the whole contract.
func TestSparseKernelEquivalence(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(17))
	for p := 1; p <= 8; p++ {
		for _, density := range []float64{0.05, 0.3, 1.0} {
			t.Run(fmt.Sprintf("p%d/density%g", p, density), func(t *testing.T) {
				m := randSparsifiedModel(rng, p, density)
				sp := m.Clone()
				m.SetBackend(BackendPackedDense)
				sp.SetBackend(BackendSparse)
				if got := sp.ActiveBackend(); got != BackendSparse {
					t.Fatalf("forced sparse backend resolved to %v", got)
				}
				n := m.Order()
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				u := make([]complex128, p)
				for i := range u {
					u[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				theta := complex(0.3*rng.NormFloat64(), 1+rng.Float64())

				yd := make([]complex128, p)
				ys := make([]complex128, p)
				m.CApplyC(yd, x)
				sp.CApplyC(ys, x)
				if d := maxAbsDiff(yd, ys); d > tol*vecScale(yd) {
					t.Fatalf("CApplyC backend mismatch %g", d)
				}
				zd := make([]complex128, n)
				zs := make([]complex128, n)
				m.CApplyCT(zd, u)
				sp.CApplyCT(zs, u)
				if d := maxAbsDiff(zd, zs); d > tol*vecScale(zd) {
					t.Fatalf("CApplyCT backend mismatch %g", d)
				}

				pd := make([]complex128, p*p)
				ps := make([]complex128, p*p)
				if err := m.CResolventB(pd, theta); err != nil {
					t.Fatal(err)
				}
				if err := sp.CResolventB(ps, theta); err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(pd, ps); d > tol*vecScale(pd) {
					t.Fatalf("CResolventB backend mismatch %g", d)
				}
				if err := m.BTResolventCT(pd, theta); err != nil {
					t.Fatal(err)
				}
				if err := sp.BTResolventCT(ps, theta); err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(pd, ps); d > tol*vecScale(pd) {
					t.Fatalf("BTResolventCT backend mismatch %g", d)
				}

			})
		}
	}
}

// TestBackendDispatch pins the deterministic auto rule and the override
// semantics: small or dense models run packed-dense, large sparse models
// flip to CSR, and SetBackend forces the choice (a redundant request
// keeps the packed kernels).
func TestBackendDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := randModel(rng, 4)
	if got := small.ActiveBackend(); got != BackendPackedDense {
		t.Fatalf("small model auto-resolved to %v, want packed-dense", got)
	}

	// A large model with banded (1-port-per-column) C clears both auto gates.
	big, err := Generate(11, GenOptions{Ports: 4, Order: sparseMinOrder, PortsPerColumn: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.Order() < sparseMinOrder {
		t.Fatalf("generated order %d below sparse threshold", big.Order())
	}
	if 4*big.nnzC() > big.P*big.Order() {
		t.Fatalf("generated C not sparse enough: nnz=%d", big.nnzC())
	}
	if got := big.ActiveBackend(); got != BackendSparse {
		t.Fatalf("large sparse model auto-resolved to %v, want sparse", got)
	}
	if got := big.BackendSelection(); got != BackendAuto {
		t.Fatalf("selection reports %v, want auto", got)
	}

	big.SetBackend(BackendPackedDense)
	if got := big.ActiveBackend(); got != BackendPackedDense {
		t.Fatalf("forced packed-dense resolved to %v", got)
	}
	pk := big.pack.Load()
	big.SetBackend(BackendPackedDense) // no-op
	if big.pack.Load() != pk {
		t.Fatal("redundant SetBackend dropped the packed kernels")
	}

	clone := big.Clone()
	if got := clone.BackendSelection(); got != BackendPackedDense {
		t.Fatalf("Clone dropped the backend request: %v", got)
	}
}

// TestSquaredKernelEquivalence validates the half-size path's block-local
// kernels against dense references: A² applies/solves, the [A·B | B] pair
// apply, and the V·(A² − τI)⁻¹·[A·B | B] capacitance panels (single and
// multi-shift, with the multi panels bit-identical to single calls).
func TestSquaredKernelEquivalence(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(23))
	for p := 1; p <= 6; p++ {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			m := randModel(rng, p)
			n := m.Order()
			a := m.DenseA().ToComplex()
			a2 := a.Mul(a)
			bD := m.DenseB().ToComplex()
			abD := a.Mul(bD)

			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			y := make([]complex128, n)
			m.CApplyA2(y, x)
			want := a2.MulVec(x)
			if d := maxAbsDiff(y, want); d > tol*vecScale(want) {
				t.Fatalf("CApplyA2 mismatch %g", d)
			}

			tau := complex(-1-rng.Float64(), 0.3*rng.NormFloat64())
			shifted := a2.Clone()
			for i := 0; i < n; i++ {
				shifted.Set(i, i, shifted.At(i, i)-tau)
			}
			f, err := mat.CLUFactor(shifted)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CSolveShiftedA2(y, x, tau); err != nil {
				t.Fatal(err)
			}
			want = f.Solve(x)
			if d := maxAbsDiff(y, want); d > tol*vecScale(want) {
				t.Fatalf("CSolveShiftedA2 mismatch %g", d)
			}

			s1 := make([]complex128, p)
			s2 := make([]complex128, p)
			for i := 0; i < p; i++ {
				s1[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				s2[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			m.CApplyABPair(y, s1, s2)
			want = abD.MulVec(s1)
			wb := bD.MulVec(s2)
			for i := range want {
				want[i] += wb[i]
			}
			if d := maxAbsDiff(y, want); d > tol*vecScale(want) {
				t.Fatalf("CApplyABPair mismatch %g", d)
			}

			// Capacitance panel against dense V·(A²−τI)⁻¹·[A·B | B].
			q := 2 * p
			vt := make([]float64, n*q)
			vD := mat.NewDense(q, n)
			for r := 0; r < q; r++ {
				for j := 0; j < n; j++ {
					v := rng.NormFloat64()
					vD.Set(r, j, v)
					vt[j*q+r] = v
				}
			}
			dst := make([]complex128, q*2*p)
			if err := m.VResolventA2BPair(dst, vt, q, tau); err != nil {
				t.Fatal(err)
			}
			vC := vD.ToComplex()
			ga := vC.Mul(f.SolveMat(abD))
			gb := vC.Mul(f.SolveMat(bD))
			for r := 0; r < q; r++ {
				for k := 0; k < p; k++ {
					if d := cAbs(dst[r*2*p+k] - ga.At(r, k)); d > tol*vecScale(ga.Data) {
						t.Fatalf("VResolventA2BPair A·B col mismatch %g", d)
					}
					if d := cAbs(dst[r*2*p+p+k] - gb.At(r, k)); d > tol*vecScale(gb.Data) {
						t.Fatalf("VResolventA2BPair B col mismatch %g", d)
					}
				}
			}

		})
	}
}

func cAbs(z complex128) float64 { return cmplx.Abs(z) }

// randReciprocalModel builds a model that is reciprocal by construction:
// one shared pole/weight list across columns and symmetric B-weighted
// residue matrices per block.
func randReciprocalModel(rng *rand.Rand, p, nb int) *Model {
	m := &Model{P: p, D: mat.NewDense(p, p), Cols: make([]Column, p)}
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			v := 0.1 * rng.NormFloat64()
			m.D.Set(i, j, v)
			m.D.Set(j, i, v)
		}
	}
	blocks := make([]Block, nb)
	for b := range blocks {
		blk := Block{Sigma: -0.1 - 2*rng.Float64(), B1: rng.NormFloat64()}
		if rng.Intn(2) == 0 {
			blk.Size = 1
		} else {
			blk.Size = 2
			blk.Omega = 0.5 + 3*rng.Float64()
			blk.B2 = rng.NormFloat64()
		}
		blocks[b] = blk
	}
	mOrd := 0
	for _, b := range blocks {
		mOrd += b.Size
	}
	for k := 0; k < p; k++ {
		m.Cols[k].Blocks = append([]Block(nil), blocks...)
		m.Cols[k].C = mat.NewDense(p, mOrd)
	}
	// Symmetric residue matrices Γ per block state, written into each
	// column's C so that C_k[i, off+s] = Γ_s[i, k].
	off := 0
	for _, b := range blocks {
		for s := 0; s < b.Size; s++ {
			for i := 0; i < p; i++ {
				for k := 0; k <= i; k++ {
					v := rng.NormFloat64()
					m.Cols[k].C.Set(i, off+s, v)
					m.Cols[i].C.Set(k, off+s, v)
				}
			}
		}
		off += b.Size
	}
	return m
}

// TestReciprocalDetection pins the detector: symmetric-by-construction
// models detect exactly, any single perturbed residue or D entry breaks
// exact detection, small perturbations pass only under a tolerance, and
// 1-port models are always reciprocal.
func TestReciprocalDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for p := 2; p <= 6; p++ {
		m := randReciprocalModel(rng, p, 3)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if !m.Reciprocal(0) {
			t.Fatalf("p=%d symmetric model not detected as reciprocal", p)
		}
		// Symmetry of H itself, as a semantic cross-check.
		h := m.Eval(complex(0.2, 1.3))
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if d := cAbs(h.At(i, j) - h.At(j, i)); d > 1e-12 {
					t.Fatalf("detected-reciprocal model has asymmetric H: %g", d)
				}
			}
		}

		pert := m.Clone()
		pert.Cols[0].C.Set(p-1, 0, pert.Cols[0].C.At(p-1, 0)+1e-6)
		if pert.Reciprocal(0) {
			t.Fatal("perturbed residue still detected as exactly reciprocal")
		}
		if !pert.Reciprocal(1e-3) {
			t.Fatal("small perturbation rejected under loose tolerance")
		}
		if pert.Reciprocal(1e-12) {
			t.Fatal("perturbation accepted under tight tolerance")
		}

		dpert := m.Clone()
		dpert.D.Set(0, p-1, dpert.D.At(0, p-1)+1e-6)
		if dpert.Reciprocal(0) {
			t.Fatal("asymmetric D still detected as reciprocal")
		}
	}

	one := randModel(rng, 1)
	if !one.Reciprocal(0) {
		t.Fatal("1-port model must always be reciprocal")
	}
	if asym := randModel(rng, 4); asym.Reciprocal(1e-9) {
		t.Fatal("generic random 4-port model detected as reciprocal")
	}
}

// TestSparseApplyZeroAllocs pins the sparse backend's apply hot path —
// the CSR C and Cᵀ products executed once per Arnoldi step — at zero
// steady-state allocations, matching the packed-dense pins in
// hamiltonian's alloc tests. A regression here multiplies straight into
// GC pressure on n ≳ 10⁴ solves.
func TestSparseApplyZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randSparsifiedModel(rng, 6, 0.2)
	m.SetBackend(BackendSparse)
	if got := m.ActiveBackend(); got != BackendSparse {
		t.Fatalf("forced sparse backend resolved to %v", got)
	}
	n := m.Order()
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	u := make([]complex128, m.P)
	for i := range u {
		u[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	yp := make([]complex128, m.P)
	yn := make([]complex128, n)
	m.CApplyC(yp, x) // warm the CSR build and kernel cache
	m.CApplyCT(yn, u)
	if avg := testing.AllocsPerRun(100, func() { m.CApplyC(yp, x) }); avg != 0 {
		t.Fatalf("sparse CApplyC allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { m.CApplyCT(yn, u) }); avg != 0 {
		t.Fatalf("sparse CApplyCT allocates %.1f objects per call, want 0", avg)
	}
}
