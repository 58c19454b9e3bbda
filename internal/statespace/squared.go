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
// provide the complex block-local pieces: A² applies/solves and the U-pair
// apply. The V·(A² − τI)⁻¹·U capacitance panel is only ever needed at a
// real τ, so it lives in squaredreal.go (RResolventA2BPair).

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
