package arnoldi

import (
	"errors"
	"testing"
)

// fakeSweep scripts one sweep of fakeLane. Distances are to ϑ = 0, so a
// Ritz value μ = 1/d stands for the eigenvalue λ = d.
type fakeSweep struct {
	conv      []float64 // distances of converged pairs (residual 0)
	unconv    []float64 // distances of unconverged pairs (residual 1)
	invariant bool
	err       error
}

// fakeLane feeds scripted Ritz values through singleShift and records
// what singleShift asks of it.
type fakeLane struct {
	script []fakeSweep
	sweeps int
	locks  int // pairs locked
	resids int // base residuals requested
}

// fakeApplies is the operator-apply count of every successful sweep.
const fakeApplies = 10

var errScriptDone = errors.New("fake lane: sweep past the end of the script")

func (l *fakeLane) sweep(cfg Config) (*ritzSet, int, bool, error) {
	if l.sweeps == len(l.script) {
		return nil, 0, false, errScriptDone
	}
	s := l.script[l.sweeps]
	l.sweeps++
	if s.err != nil {
		return nil, 0, false, s.err
	}
	r := &ritzSet{}
	for _, d := range s.conv {
		r.values = append(r.values, complex(1/d, 0))
		r.residuals = append(r.residuals, 0)
	}
	for _, d := range s.unconv {
		r.values = append(r.values, complex(1/d, 0))
		r.residuals = append(r.residuals, 1)
	}
	return r, fakeApplies, s.invariant, nil
}

// lock returns a residual of 1e-3·λ so the test can check that each
// returned eigenvalue carries its own.
func (l *fakeLane) lock(i int, lambda complex128, wantResid bool) float64 {
	l.locks++
	if !wantResid {
		return 0
	}
	l.resids++
	return 1e-3 * real(lambda)
}

func (l *fakeLane) warm(int) {}

// TestSingleShiftCertificationRules drives the certification and locking policy
// of singleShift with scripted sweeps: each case pins one exit or radius
// rule that the numerical tests reach only by accident.
func TestSingleShiftCertificationRules(t *testing.T) {
	ghost := 0.25 + 1e-9 // within the 1e-7·scale dedup of 0.25
	for _, tc := range []struct {
		name      string
		nWanted   int
		rho0      float64
		script    []fakeSweep
		restarts  int
		exhausted bool
		radius    float64
		eigs      []float64
		locks     int // pairs locked, ghosts included
		resids    int // base residuals computed, one per returned pair
	}{
		{
			// Three sweeps with nothing new converged end the shift.
			name:     "stagnation",
			rho0:     1,
			script:   []fakeSweep{{unconv: []float64{0.5}}, {unconv: []float64{0.5}}, {unconv: []float64{0.5}}},
			restarts: 3,
			radius:   0.9 * 0.5,
		},
		{
			// The ghost of 0.25 is locked but not returned, and it resets
			// the stagnation count: stopping takes three more empty sweeps.
			name: "ghost resets stagnation",
			rho0: 1,
			script: []fakeSweep{
				{conv: []float64{0.25}, unconv: []float64{0.5}},
				{conv: []float64{ghost}, unconv: []float64{0.5}},
				{unconv: []float64{0.5}}, {unconv: []float64{0.5}}, {unconv: []float64{0.5}},
			},
			restarts: 5,
			radius:   0.9 * 0.5,
			eigs:     []float64{0.25},
			locks:    2,
			resids:   1,
		},
		{
			// A fully deflated start vector exhausts the shift; the failed
			// sweep adds no applies and keeps the last sweep's bound.
			name: "breakdown exhausts",
			rho0: 1,
			script: []fakeSweep{
				{conv: []float64{0.25}, unconv: []float64{0.5}},
				{err: ErrBreakdownEmpty},
			},
			restarts:  2,
			exhausted: true,
			radius:    0.9 * 0.5,
			eigs:      []float64{0.25},
			locks:     1,
			resids:    1,
		},
		{
			// An invariant sweep with only a ghost exhausts the shift; with
			// nothing unconverged left the radius stays ρ₀.
			name: "invariant without new pair exhausts",
			rho0: 1,
			script: []fakeSweep{
				{conv: []float64{0.25}, unconv: []float64{0.5}},
				{conv: []float64{ghost}, invariant: true},
			},
			restarts:  2,
			exhausted: true,
			radius:    1,
			eigs:      []float64{0.25},
			locks:     2,
			resids:    1,
		},
		{
			// NWanted+1 certified pairs: ρ shrinks midway between the
			// NWanted-th and the next distance, and the shift stops.
			name:     "shrink to NWanted",
			nWanted:  2,
			rho0:     1,
			script:   []fakeSweep{{conv: []float64{0.5, 0.125, 0.25}, unconv: []float64{2}}},
			restarts: 1,
			radius:   0.5 * (0.25 + 0.5),
			eigs:     []float64{0.125, 0.25},
			locks:    3,
			resids:   3,
		},
		{
			// ρ grows to the farthest converged distance when that stays
			// certifiable.
			name:     "grow",
			rho0:     0.125,
			script:   []fakeSweep{{conv: []float64{0.25}, unconv: []float64{1}}, {unconv: []float64{1}}},
			restarts: 2,
			radius:   0.25 * (1 + 1e-9),
			eigs:     []float64{0.25},
			locks:    1,
			resids:   1,
		},
		{
			// Growth is capped at 0.9× the nearest unconverged distance, and
			// the converged pair beyond the cap is not returned.
			name:     "grow capped",
			rho0:     0.125,
			script:   []fakeSweep{{conv: []float64{0.5}, unconv: []float64{0.5}}, {unconv: []float64{0.5}}},
			restarts: 2,
			radius:   0.9 * 0.5,
			locks:    1,
			resids:   1,
		},
		{
			// From the second sweep on, a certifiable region covering ρ₀
			// ends the shift (two sweeps, not three for stagnation).
			name:     "certified region covers rho0",
			rho0:     1,
			script:   []fakeSweep{{unconv: []float64{2}}, {unconv: []float64{2}}},
			restarts: 2,
			radius:   1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln := &fakeLane{script: tc.script}
			res, err := singleShift(ln, 0, tc.rho0, SingleShiftParams{NWanted: tc.nWanted})
			if err != nil {
				t.Fatal(err)
			}
			applies := fakeApplies * tc.restarts
			if tc.exhausted && tc.script[len(tc.script)-1].err != nil {
				applies -= fakeApplies
			}
			if res.Restarts != tc.restarts || res.Exhausted != tc.exhausted || res.OpApplies != applies {
				t.Errorf("restarts %d exhausted %v applies %d, want %d %v %d",
					res.Restarts, res.Exhausted, res.OpApplies, tc.restarts, tc.exhausted, applies)
			}
			if res.Radius != tc.radius {
				t.Errorf("radius %.17g, want %.17g", res.Radius, tc.radius)
			}
			if len(res.Eigenvalues) != len(tc.eigs) || len(res.ResidualsM) != len(tc.eigs) {
				t.Fatalf("returned %v (residuals %v), want %v", res.Eigenvalues, res.ResidualsM, tc.eigs)
			}
			for i, d := range tc.eigs {
				if res.Eigenvalues[i] != complex(d, 0) || res.ResidualsM[i] != 1e-3*d {
					t.Errorf("pair %d: λ %v residual %g, want %g and %g", i, res.Eigenvalues[i], res.ResidualsM[i], d, 1e-3*d)
				}
			}
			if ln.locks != tc.locks || ln.resids != tc.resids {
				t.Errorf("locked %d pairs with %d residuals, want %d and %d", ln.locks, ln.resids, tc.locks, tc.resids)
			}
			if ln.sweeps != len(tc.script) {
				t.Errorf("ran %d of %d scripted sweeps", ln.sweeps, len(tc.script))
			}
		})
	}
}
