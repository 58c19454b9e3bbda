package passivity

import (
	"math"
	"testing"

	"repro/internal/hamiltonian"
	"repro/internal/statespace"
)

// TestHalfPathMatchesFullOnReciprocalCases characterizes scaled-down
// reciprocal Table-I variants twice — full 2n×2n path forced with HalfOff
// vs the half-size squared path under HalfAuto — and requires the same
// crossing count with frequencies agreeing within 1e-9·ω_max. The two
// legs solve different eigenproblems (λ vs μ = λ²), so agreement is to
// round-off, not bit-exact; 1e-9·ω_max is the cross-path pin the bench
// suite also enforces.
func TestHalfPathMatchesFullOnReciprocalCases(t *testing.T) {
	for _, spec := range statespace.ReciprocalTableICases() {
		if spec.P > 20 {
			continue // keep unit-test generation cost bounded
		}
		spec.N = 3 * spec.P // shrink: 3 states per column at full port count
		m, err := statespace.BuildCase(spec)
		if err != nil {
			t.Fatalf("case %d: %v", spec.ID, err)
		}
		if !m.Reciprocal(0) {
			t.Fatalf("case %d: generated model is not bit-exactly reciprocal", spec.ID)
		}
		leg := func(half hamiltonian.HalfMode) *Report {
			o := charOpts()
			o.Half = half
			rep, err := Characterize(m, o)
			if err != nil {
				t.Fatalf("case %d (mode %v): %v", spec.ID, half, err)
			}
			return rep
		}
		full := leg(hamiltonian.HalfOff)
		half := leg(hamiltonian.HalfAuto)
		if full.HalfPath {
			t.Fatalf("case %d: HalfOff leg reports HalfPath", spec.ID)
		}
		if !half.HalfPath {
			t.Fatalf("case %d: HalfAuto leg did not engage the half path on a reciprocal model", spec.ID)
		}
		if len(full.Crossings) != len(half.Crossings) {
			t.Fatalf("case %d: %d crossings on the full path vs %d on the half path\nfull: %v\nhalf: %v",
				spec.ID, len(full.Crossings), len(half.Crossings), full.Crossings, half.Crossings)
		}
		tol := 1e-9 * full.OmegaMax
		for k := range full.Crossings {
			if d := math.Abs(full.Crossings[k] - half.Crossings[k]); d > tol {
				t.Fatalf("case %d: crossing %d differs by %.3e (> %.3e): full %v vs half %v",
					spec.ID, k, d, tol, full.Crossings[k], half.Crossings[k])
			}
		}
	}
}

// TestBackendBitIdentityAcrossThreads pins the determinism contract of
// the kernel backends: for a FIXED backend, crossings are bit-identical
// across worker counts {1, 2, 8}; across backends, counts match and
// frequencies agree within 1e-9·ω_max.
func TestBackendBitIdentityAcrossThreads(t *testing.T) {
	m, err := statespace.Generate(53, statespace.GenOptions{
		Ports: 4, Order: 32, TargetPeak: 1.05, GridPoints: 100,
		PortsPerColumn: 2, // banded C: the sparse backend has real zeros to skip
	})
	if err != nil {
		t.Fatal(err)
	}
	perBackend := make(map[statespace.Backend][]float64)
	var omegaMax float64
	for _, backend := range []statespace.Backend{statespace.BackendPackedDense, statespace.BackendSparse} {
		var ref *Report
		for _, threads := range []int{1, 2, 8} {
			o := charOpts()
			o.Core.Threads = threads
			o.Backend = backend
			rep, err := Characterize(m, o)
			if err != nil {
				t.Fatalf("%v threads=%d: %v", backend, threads, err)
			}
			if rep.Backend != backend {
				t.Fatalf("forced %v, report says %v", backend, rep.Backend)
			}
			if ref == nil {
				ref = rep
				continue
			}
			if len(rep.Crossings) != len(ref.Crossings) {
				t.Fatalf("%v threads=%d: %d crossings vs %d at the reference config",
					backend, threads, len(rep.Crossings), len(ref.Crossings))
			}
			for k := range rep.Crossings {
				if rep.Crossings[k] != ref.Crossings[k] {
					t.Fatalf("%v threads=%d: crossing %d not bit-identical: %v vs %v",
						backend, threads, k, rep.Crossings[k], ref.Crossings[k])
				}
			}
		}
		perBackend[backend] = ref.Crossings
		omegaMax = ref.OmegaMax
	}
	dense := perBackend[statespace.BackendPackedDense]
	sparse := perBackend[statespace.BackendSparse]
	if len(dense) != len(sparse) {
		t.Fatalf("backend disagreement on crossing count: packed-dense %d vs sparse %d", len(dense), len(sparse))
	}
	tol := 1e-9 * omegaMax
	for k := range dense {
		if d := math.Abs(dense[k] - sparse[k]); d > tol {
			t.Fatalf("crossing %d differs across backends by %.3e (> %.3e)", k, d, tol)
		}
	}
	if len(dense) == 0 {
		t.Fatal("test model produced no crossings; the bit-identity matrix asserted nothing")
	}
}
