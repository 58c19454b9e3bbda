package statespace

import "repro/internal/mat"

// Squared-operator kernels for the half-size Hamiltonian path. For a
// reciprocal model the 2n×2n Hamiltonian M is similar to [0, P̃; Q̃, 0]
// with P̃ = A + B·Wp·C and Q̃ = A + B·Wq·C, so spec(M)² = spec(N) with
//
//	N = Q̃·P̃ = A² + U·V,  U = [A·B | B] (n×2p),
//	V = [Wp·C ; Wq·(C·A + (C·B)·Wp·C)] (2p×n, real).
//
// A² inherits A's block-diagonal form — each 2×2 rotation block squares to
// another rotation block with σ' = σ² − ω², ω' = 2σω — so (N − τI)⁻¹ is
// again a block-diagonal solve plus a rank-2p SMW correction, mirroring
// the full-size shift-invert setup at half the state dimension. V is
// precomputed by the hamiltonian package (it owns Wp/Wq); the kernels here
// provide the block-local pieces: A² applies/solves, the U-pair apply, and
// the V·(A² − τI)⁻¹·U capacitance panels (single and multi-shift).

// CApplyA2 computes y = A²·x blockwise on a complex state vector.
func (m *Model) CApplyA2(y, x []complex128) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		y[off] = scmul(s*s, x[off])
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		s2, w2 := sg*sg-w*w, 2*sg*w
		x0, x1 := x[off], x[off+1]
		y[off] = complex(s2*real(x0)+w2*real(x1), s2*imag(x0)+w2*imag(x1))
		y[off+1] = complex(s2*real(x1)-w2*real(x0), s2*imag(x1)-w2*imag(x0))
	}
}

// CSolveShiftedA2 solves (A² − τI)·y = x blockwise in O(n). Returns
// mat.ErrSingular when τ coincides with a squared pole.
func (m *Model) CSolveShiftedA2(y, x []complex128, tau complex128) error {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		d := complex(s*s, 0) - tau
		if d == 0 {
			return mat.ErrSingular
		}
		y[off] = x[off] / d
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		w2 := 2 * sg * w
		d := complex(sg*sg-w*w, 0) - tau
		det := d*d + complex(w2*w2, 0)
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		x0, x1 := x[off], x[off+1]
		y[off] = (d*x0 - scmul(w2, x1)) * idet
		y[off+1] = (scmul(w2, x0) + d*x1) * idet
	}
	return nil
}

// CApplyABPair computes y = A·B·s1 + B·s2 for s1, s2 ∈ C^p in O(n): the
// U-block apply of the half-size SMW correction. B's k-th column lives on
// column k's states, and A·B keeps that support.
func (m *Model) CApplyABPair(y []complex128, s1, s2 []complex128) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		b1 := pk.b11[i]
		u1, u2 := s1[pk.col1[i]], s2[pk.col1[i]]
		y[off] = complex(s*b1*real(u1)+b1*real(u2), s*b1*imag(u1)+b1*imag(u2))
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		b1, b2 := pk.b21[i], pk.b22[i]
		// (A·B)_block = [[σ, ω], [−ω, σ]]·[b1; b2].
		ab1, ab2 := sg*b1+w*b2, -w*b1+sg*b2
		u1, u2 := s1[pk.col2[i]], s2[pk.col2[i]]
		y[off] = complex(ab1*real(u1)+b1*real(u2), ab1*imag(u1)+b1*imag(u2))
		y[off+1] = complex(ab2*real(u1)+b2*real(u2), ab2*imag(u1)+b2*imag(u2))
	}
}

// VResolventA2BPair computes the q×2p capacitance panel
//
//	X = [ V·(A² − τI)⁻¹·A·B | V·(A² − τI)⁻¹·B ]
//
// into dst (row-major, len q·2p) for a real q×n matrix V supplied
// TRANSPOSED as vt (n×q row-major, so each state reads one contiguous
// q-row). The per-column resolvent solves are block-local, so the panel
// costs O(n·q). Returns mat.ErrSingular when τ hits a squared pole.
func (m *Model) VResolventA2BPair(dst []complex128, vt []float64, q int, tau complex128) error {
	pk := m.packKernels()
	p := pk.p
	for i := range dst[:q*2*p] {
		dst[i] = 0
	}
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		d := complex(s*s, 0) - tau
		if d == 0 {
			return mat.ErrSingular
		}
		b1 := pk.b11[i]
		// Solves for the two right-hand sides A·B = σ·b1 and B = b1.
		gb := complex(b1, 0) / d
		ga := scmul(s, gb)
		k := int(pk.col1[i])
		ar, ai := real(ga), imag(ga)
		br, bi := real(gb), imag(gb)
		row := vt[int(off)*q : (int(off)+1)*q]
		for r, vv := range row {
			dst[r*2*p+k] += complex(vv*ar, vv*ai)
			dst[r*2*p+p+k] += complex(vv*br, vv*bi)
		}
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		w2 := 2 * sg * w
		d := complex(sg*sg-w*w, 0) - tau
		det := d*d + complex(w2*w2, 0)
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		b1, b2 := pk.b21[i], pk.b22[i]
		ab1, ab2 := sg*b1+w*b2, -w*b1+sg*b2
		// Solve [[σ'−τ, ω'], [−ω', σ'−τ]]·x = rhs for rhs ∈ {A·B, B}.
		ga0 := (scmul(ab1, d) - complex(w2*ab2, 0)) * idet
		ga1 := (scmul(ab2, d) + complex(w2*ab1, 0)) * idet
		gb0 := (scmul(b1, d) - complex(w2*b2, 0)) * idet
		gb1 := (scmul(b2, d) + complex(w2*b1, 0)) * idet
		k := int(pk.col2[i])
		a0r, a0i := real(ga0), imag(ga0)
		a1r, a1i := real(ga1), imag(ga1)
		b0r, b0i := real(gb0), imag(gb0)
		b1r, b1i := real(gb1), imag(gb1)
		row0 := vt[int(off)*q : (int(off)+1)*q]
		row1 := vt[(int(off)+1)*q : (int(off)+2)*q]
		for r := 0; r < q; r++ {
			v0, v1 := row0[r], row1[r]
			dst[r*2*p+k] += complex(v0*a0r+v1*a1r, v0*a0i+v1*a1i)
			dst[r*2*p+p+k] += complex(v0*b0r+v1*b1r, v0*b0i+v1*b1i)
		}
	}
	return nil
}
