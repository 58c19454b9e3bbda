package statespace

// Backend selects which kernel implementation executes the structured-
// operator surface (CApply*/CSolveShifted*/CResolventB*). All backends
// implement the same contract against the same Model; they differ only in
// the storage and loop structure of the C-touching kernels. For any fixed
// backend the kernels are deterministic and bit-identical across worker
// counts; cross-backend results agree to round-off (pinned at 1e-12 by the
// property tests), not bit-exactly, because the sparse loops skip the
// structural zeros the dense loops accumulate.
type Backend int32

const (
	// BackendAuto defers the choice to the dispatcher: the sparse backend
	// is picked iff the model is large (n ≥ sparseMinOrder) AND C is at
	// most ¼ dense; everything else runs packed-dense. The rule is a pure
	// function of the model's structure, so the same model always resolves
	// to the same backend on every host and worker count.
	BackendAuto Backend = iota
	// BackendPackedDense forces the flat packed-dense kernels (packed.go):
	// C stored dense row-major both ways. The right choice for the paper's
	// Table-I models, whose C is fully dense.
	BackendPackedDense
	// BackendSparse forces the CSR kernels (sparse.go): C and Cᵀ stored
	// compressed, so applies and SMW panel setup cost O(nnz) instead of
	// O(n·p). The right choice for n ≳ 10⁴ models with port-local residues.
	BackendSparse
)

// String names the backend for reports and bench output.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendPackedDense:
		return "packed-dense"
	case BackendSparse:
		return "sparse"
	default:
		return "unknown"
	}
}

// sparseMinOrder is the smallest dynamic order at which BackendAuto will
// consider the sparse backend: below it the dense kernels win on constant
// factors regardless of sparsity.
const sparseMinOrder = 512

// SetBackend requests a kernel backend for the model. BackendAuto (the
// default) lets the dispatcher choose per the model's structure. Changing
// the request drops the packed kernel cache; setting the value already in
// effect is a no-op.
func (m *Model) SetBackend(b Backend) {
	if Backend(m.backend.Load()) == b {
		return
	}
	m.backend.Store(int32(b))
	m.InvalidateKernels()
}

// BackendSelection returns the requested backend (BackendAuto unless
// SetBackend overrode it).
func (m *Model) BackendSelection() Backend { return Backend(m.backend.Load()) }

// ActiveBackend returns the backend actually executing kernels for the
// model — the dispatcher's resolution of BackendAuto, or the forced value.
// It never returns BackendAuto.
func (m *Model) ActiveBackend() Backend { return m.packKernels().backend }

// nnzC counts the structurally non-zero entries of the global C matrix.
func (m *Model) nnzC() int {
	nnz := 0
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		for i := 0; i < m.P; i++ {
			ri := col.C.Row(i)
			for j := 0; j < mOrd; j++ {
				if ri[j] != 0 {
					nnz++
				}
			}
		}
	}
	return nnz
}

// resolveBackend maps the request to a concrete backend. The auto rule is
// deterministic in the model structure alone: sparse iff the order clears
// sparseMinOrder and C is at most ¼ structurally dense.
func (m *Model) resolveBackend() Backend {
	switch Backend(m.backend.Load()) {
	case BackendPackedDense:
		return BackendPackedDense
	case BackendSparse:
		return BackendSparse
	default:
		n := m.Order()
		if n >= sparseMinOrder && 4*m.nnzC() <= m.P*n {
			return BackendSparse
		}
		return BackendPackedDense
	}
}
