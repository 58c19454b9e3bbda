package statespace

import "repro/internal/mat"

// Real-arithmetic variants of the squared-operator kernels in squared.go.
// Every sweep shift on the half-size path is τ = −ω² — real — and the
// squared operator N = A² + U·V is itself real, so the entire shift-invert
// Arnoldi iteration can run on real state vectors: half the memory traffic
// and half the flops of the complex kernels at identical block structure.
// Expression ordering matches the complex kernels so the real path is
// deterministic for a fixed model/shift, and (A²−τI) block determinants are
// the same quantities, so singularity detection agrees with the complex
// route bit-for-bit.

// RApplyA2 computes y = A²·x blockwise on a real state vector.
func (m *Model) RApplyA2(y, x []float64) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		y[off] = s * s * x[off]
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		s2, w2 := sg*sg-w*w, 2*sg*w
		x0, x1 := x[off], x[off+1]
		y[off] = s2*x0 + w2*x1
		y[off+1] = s2*x1 - w2*x0
	}
}

// RSolveShiftedA2 solves (A² − τI)·y = x blockwise in O(n) for a real
// shift τ. Returns mat.ErrSingular when τ coincides with a squared pole.
func (m *Model) RSolveShiftedA2(y, x []float64, tau float64) error {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		d := s*s - tau
		if d == 0 {
			return mat.ErrSingular
		}
		y[off] = x[off] / d
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		w2 := 2 * sg * w
		d := sg*sg - w*w - tau
		det := d*d + w2*w2
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		x0, x1 := x[off], x[off+1]
		y[off] = (d*x0 - w2*x1) * idet
		y[off+1] = (w2*x0 + d*x1) * idet
	}
	return nil
}

// RApplyABPair computes y = A·B·s1 + B·s2 for real s1, s2 ∈ R^p in O(n):
// the U-block apply of the half-size SMW correction on real vectors.
func (m *Model) RApplyABPair(y []float64, s1, s2 []float64) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		b1 := pk.b11[i]
		u1, u2 := s1[pk.col1[i]], s2[pk.col1[i]]
		y[off] = s*b1*u1 + b1*u2
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		b1, b2 := pk.b21[i], pk.b22[i]
		// (A·B)_block = [[σ, ω], [−ω, σ]]·[b1; b2].
		ab1, ab2 := sg*b1+w*b2, -w*b1+sg*b2
		u1, u2 := s1[pk.col2[i]], s2[pk.col2[i]]
		y[off] = ab1*u1 + b1*u2
		y[off+1] = ab2*u1 + b2*u2
	}
}

// RResolventA2BPair computes the real q×2p capacitance panel
//
//	X = [ V·(A² − τI)⁻¹·A·B | V·(A² − τI)⁻¹·B ]
//
// into dst (row-major, len q·2p) for a real shift τ, with V supplied
// transposed as vt exactly as in VResolventA2BPair. Returns
// mat.ErrSingular when τ hits a squared pole.
func (m *Model) RResolventA2BPair(dst []float64, vt []float64, q int, tau float64) error {
	pk := m.packKernels()
	p := pk.p
	for i := range dst[:q*2*p] {
		dst[i] = 0
	}
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		d := s*s - tau
		if d == 0 {
			return mat.ErrSingular
		}
		b1 := pk.b11[i]
		// Solves for the two right-hand sides A·B = σ·b1 and B = b1.
		gb := b1 / d
		ga := s * gb
		k := int(pk.col1[i])
		row := vt[int(off)*q : (int(off)+1)*q]
		for r, vv := range row {
			dst[r*2*p+k] += vv * ga
			dst[r*2*p+p+k] += vv * gb
		}
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		w2 := 2 * sg * w
		d := sg*sg - w*w - tau
		det := d*d + w2*w2
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		b1, b2 := pk.b21[i], pk.b22[i]
		ab1, ab2 := sg*b1+w*b2, -w*b1+sg*b2
		// Solve [[σ'−τ, ω'], [−ω', σ'−τ]]·x = rhs for rhs ∈ {A·B, B}.
		ga0 := (ab1*d - w2*ab2) * idet
		ga1 := (ab2*d + w2*ab1) * idet
		gb0 := (b1*d - w2*b2) * idet
		gb1 := (b2*d + w2*b1) * idet
		k := int(pk.col2[i])
		row0 := vt[int(off)*q : (int(off)+1)*q]
		row1 := vt[(int(off)+1)*q : (int(off)+2)*q]
		for r := 0; r < q; r++ {
			v0, v1 := row0[r], row1[r]
			dst[r*2*p+k] += v0*ga0 + v1*ga1
			dst[r*2*p+p+k] += v0*gb0 + v1*gb1
		}
	}
	return nil
}
