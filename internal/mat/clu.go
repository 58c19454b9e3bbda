package mat

import (
	"fmt"
	"math/cmplx"
)

// CLU holds a complex LU factorization with partial pivoting: P·A = L·U.
type CLU struct {
	lu      *CDense
	piv     []int
	sign    int
	scratch []complex128 // permutation gather buffer for SolveInto
}

// CLUFactor computes the LU factorization of the square complex matrix a
// with partial pivoting. The input is not modified.
func CLUFactor(a *CDense) (*CLU, error) {
	return cluFactor(a.Clone())
}

// CLUFactorInPlace is CLUFactor without the defensive copy: the input is
// overwritten with the factors and owned by the returned CLU. Use it when a
// is a freshly built scratch matrix (e.g. the per-shift Popov matrix).
func CLUFactorInPlace(a *CDense) (*CLU, error) {
	return cluFactor(a)
}

func cluFactor(lu *CDense) (*CLU, error) {
	if lu.Rows != lu.Cols {
		panic(fmt.Sprintf("mat: LU of non-square %d×%d matrix", lu.Rows, lu.Cols))
	}
	n := lu.Rows
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		p := k
		mx := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.Row(k)
			rp := lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Row(i)
			rk := lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &CLU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A·x = b and returns x.
func (f *CLU) Solve(b []complex128) []complex128 {
	n := f.lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU solve dimension mismatch %d vs %d", len(b), n))
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s complex128
		for j := 0; j < i; j++ {
			s += ri[j] * x[j]
		}
		x[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s complex128
		for j := i + 1; j < n; j++ {
			s += ri[j] * x[j]
		}
		x[i] = (x[i] - s) / ri[i]
	}
	return x
}

// SolveInto solves A·x = b, writing the solution into dst (len n). dst and
// b may alias. The permutation gather uses a scratch buffer owned by the
// factorization (allocated on first use), so steady-state calls are
// allocation-free; as a consequence SolveInto is not safe for concurrent
// use on the same CLU. Concurrent callers sharing one factorization use
// SolveIntoScratch with per-caller scratch instead.
func (f *CLU) SolveInto(dst, b []complex128) {
	if f.scratch == nil {
		f.scratch = make([]complex128, f.lu.Rows)
	}
	f.SolveIntoScratch(dst, b, f.scratch)
}

// SolveIntoScratch is SolveInto with a caller-provided permutation gather
// buffer (len n). It only reads the factorization, so any number of
// goroutines may solve against the same CLU concurrently as long as each
// brings its own scratch.
func (f *CLU) SolveIntoScratch(dst, b, scratch []complex128) {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n || len(scratch) < n {
		panic("mat: CLU SolveIntoScratch dimension mismatch")
	}
	// Gather b through the permutation first so dst may alias b.
	tmp := scratch
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	copy(dst, tmp)
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s complex128
		for j := 0; j < i; j++ {
			s += ri[j] * dst[j]
		}
		dst[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s complex128
		for j := i + 1; j < n; j++ {
			s += ri[j] * dst[j]
		}
		dst[i] = (dst[i] - s) / ri[i]
	}
}

// SolveMat solves A·X = B column-by-column.
func (f *CLU) SolveMat(b *CDense) *CDense {
	n := f.lu.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("mat: LU solve dimension mismatch %d vs %d", b.Rows, n))
	}
	x := NewCDense(n, b.Cols)
	col := make([]complex128, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		sol := f.Solve(col)
		for i := 0; i < n; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x
}

// Det returns the determinant of the factored matrix.
func (f *CLU) Det() complex128 {
	d := complex(float64(f.sign), 0)
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// CInverse returns A⁻¹ for the square complex matrix a.
func CInverse(a *CDense) (*CDense, error) {
	f, err := CLUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMat(CEye(a.Rows)), nil
}
