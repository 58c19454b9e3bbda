package arnoldi

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/mat"
)

// SingleShiftParams configures the S(ϑ, ρ₀) iteration (paper Sec. III).
type SingleShiftParams struct {
	// NWanted is n_ϑ, the number of eigenvalues stabilized per shift
	// (paper: 4–6). Default 5.
	NWanted int
	// MaxDim is the Krylov dimension d (paper: 60).
	MaxDim int
	// MaxRestarts bounds the number of explicit restarts. Default 12.
	MaxRestarts int
	// Tol is the relative Ritz residual convergence threshold.
	Tol float64
	// Seed drives the random restart vectors of this shift.
	Seed int64
	// Yield, when non-nil, is called at the top of every restart sweep
	// after the first — the sweep's natural checkpoint boundary. It is a
	// cooperative preemption point: the multi-shift scheduler uses it to
	// let a long batch-class shift execute queued interactive-class tasks
	// mid-shift instead of holding a worker until the shift completes. The
	// callback must not mutate solver state; it only borrows the calling
	// goroutine, so the iteration resumes bit-identically when it returns.
	Yield func()
}

// Validate rejects negative parameter values, which setDefaults would pass
// through and which silently break the iteration (a negative NWanted makes
// every certification count trivially satisfied, a negative MaxDim runs
// zero Arnoldi steps, a negative Tol never converges anything).
func (p *SingleShiftParams) Validate() error {
	switch {
	case p.NWanted < 0:
		return fmt.Errorf("arnoldi: NWanted must be ≥ 0, got %d", p.NWanted)
	case p.MaxDim < 0:
		return fmt.Errorf("arnoldi: MaxDim must be ≥ 0, got %d", p.MaxDim)
	case p.MaxRestarts < 0:
		return fmt.Errorf("arnoldi: MaxRestarts must be ≥ 0, got %d", p.MaxRestarts)
	case !(p.Tol >= 0) || math.IsInf(p.Tol, 1):
		// !(x ≥ 0) also catches NaN, which every plain comparison passes.
		return fmt.Errorf("arnoldi: Tol must be finite and ≥ 0, got %g", p.Tol)
	}
	return nil
}

func (p *SingleShiftParams) setDefaults() {
	if p.NWanted == 0 {
		p.NWanted = 5
	}
	if p.MaxDim == 0 {
		p.MaxDim = 60
	}
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 12
	}
	if p.Tol == 0 {
		p.Tol = 1e-9
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// SingleShiftResult is the output of the S operator: the complete set of
// eigenvalues inside the certified disk C_{ϑ,ρ}, the final radius ρ
// (which may be larger or smaller than ρ₀), and work counters.
type SingleShiftResult struct {
	Theta       complex128
	Eigenvalues []complex128 // all eigenvalues with |λ−ϑ| < Radius
	// ResidualsM[i] is ‖M·x − λ_i·x‖ for the returned eigenpair, measured
	// on the ORIGINAL operator when the ShiftInverter exposes it (see
	// BaseOperator); 0 when unavailable. Callers use it as the error bar
	// of Eigenvalues[i] — shift-invert Ritz residuals certify μ, not λ,
	// and badly conditioned eigenvalues can be off by orders of magnitude
	// more than the μ tolerance suggests.
	ResidualsM []float64
	Radius     float64
	Restarts   int
	OpApplies  int
	// Exhausted reports that the Krylov process resolved an invariant
	// subspace containing the full reachable spectrum near the shift.
	Exhausted bool
}

// ShiftInverter abstracts the per-shift factored operator (M − ϑI)⁻¹
// (hamiltonian.ShiftOp satisfies it via an adapter in the caller).
type ShiftInverter interface {
	Operator
	Theta() complex128
}

// BaseOperator is optionally implemented by a ShiftInverter that can also
// apply the original (non-inverted) operator M; SingleShift then reports
// per-eigenvalue residuals in M.
type BaseOperator interface {
	ApplyBase(y, x []complex128) error
}

// SingleShift runs the restarted, deflated shift-invert Arnoldi iteration
// around ϑ = inv.Theta() and returns ({λ_k}, ρ) per the paper's S operator:
//
//   - eigenvalues are stabilized in order of proximity to ϑ;
//   - if more than NWanted stabilize inside the current disk, the radius is
//     reduced to enclose exactly NWanted and the rest are discarded;
//   - if some of the NWanted stabilized eigenvalues fall outside ρ₀, the
//     radius grows to the largest converged distance;
//   - the certified radius never exceeds a safety fraction of the distance
//     to the nearest unconverged Ritz estimate, so that the returned set is
//     complete within C_{ϑ,ρ}.
func SingleShift(inv ShiftInverter, rho0 float64, params SingleShiftParams) (*SingleShiftResult, error) {
	return singleShift(&complexLane{inv: inv}, inv.Theta(), rho0, params)
}

// lane is one arithmetic's side of the S(ϑ, ρ₀) iteration: it owns the
// Krylov vectors — the locked set, the last sweep and the warm start —
// while singleShift owns every certification decision. complexLane serves
// SingleShift, realLane serves SingleShiftReal.
type lane interface {
	// sweep draws a start vector from cfg.Rng, mixes in the pending warm
	// start, runs one Arnoldi sweep deflated against the locked set and
	// extracts its Ritz values and residual estimates.
	sweep(cfg Config) (r *ritzSet, applies int, invariant bool, err error)
	// lock deflates Ritz pair i of the last sweep. With wantResid it also
	// returns the pair's residual in the base operator for eigenvalue
	// lambda (0 when the base operator is unavailable).
	lock(i int, lambda complex128, wantResid bool) float64
	// warm sets the next sweep's warm start from Ritz pair i of the last
	// sweep, or clears it when i < 0.
	warm(i int)
}

// singleShift is the S(ϑ, ρ₀) iteration of SingleShift and SingleShiftReal:
// restarts, locking with ghost purging, stagnation and exhaustion exits,
// and the certified radius. The lane supplies the arithmetic.
func singleShift(ln lane, theta complex128, rho0 float64, params SingleShiftParams) (*SingleShiftResult, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params.setDefaults()
	res := &SingleShiftResult{Theta: theta, Radius: rho0}
	cfg := Config{MaxDim: params.MaxDim, Tol: params.Tol, Rng: newRng(params.Seed), CheckEvery: 10}

	type conv struct {
		lambda complex128
		dist   float64
		residM float64
	}
	var converged []conv
	// dedupTol is relative to the local frequency scale.
	scale := cmplx.Abs(theta) + rho0
	if scale == 0 {
		scale = 1
	}
	dedupTol := 1e-7 * scale

	minUnconv := math.Inf(1)
	stagnant := 0
	for restart := 0; restart < params.MaxRestarts; restart++ {
		if params.Yield != nil && restart > 0 {
			params.Yield()
		}
		res.Restarts++
		// Early within-sweep exit: most of the sweep cost is basis
		// orthogonalization, so stop as soon as the projected problem
		// certifies NWanted eigenvalues (or certifies the initial disk
		// empty once the subspace is rich enough).
		convDists := make([]float64, len(converged))
		for i, c := range converged {
			convDists[i] = c.dist
		}
		cfg.StopEarly = earlyExit(params, convDists, rho0)
		ritz, applies, invariant, err := ln.sweep(cfg)
		if err == ErrBreakdownEmpty {
			res.Exhausted = true
			break
		}
		if err != nil {
			return nil, err
		}
		res.OpApplies += applies
		minUnconv = math.Inf(1)
		newConv := 0
		ghosts := 0
		// Only converged pairs (locked) and the nearest unconverged one
		// (warm start) are lifted to full-length vectors.
		warm := -1
		for i, mu := range ritz.values {
			if mu == 0 {
				continue
			}
			lambda := theta + 1/mu
			dist := 1 / cmplx.Abs(mu)
			if ritz.residuals[i] <= params.Tol*cmplx.Abs(mu) {
				dup := false
				for _, c := range converged {
					if cmplx.Abs(c.lambda-lambda) <= dedupTol {
						dup = true
						break
					}
				}
				// Lock the pair either way: a duplicate is a numerical
				// "ghost" of an already-locked direction (the locked Ritz
				// vector is only tol-accurate); purging it keeps later
				// sweeps exploring fresh directions.
				residM := ln.lock(i, lambda, !dup)
				if !dup {
					converged = append(converged, conv{lambda: lambda, dist: dist, residM: residM})
					newConv++
				} else {
					ghosts++
				}
				continue
			}
			if dist < minUnconv {
				minUnconv = dist
				warm = i
			}
		}
		ln.warm(warm)
		if invariant && newConv == 0 {
			res.Exhausted = true
			break
		}
		if newConv == 0 && ghosts == 0 {
			stagnant++
			if stagnant >= 3 {
				break
			}
		} else {
			stagnant = 0
		}
		// Early exit uses the same certification rule as the final radius:
		// only eigenvalues closer than 0.9× the nearest unconverged Ritz
		// estimate are certifiable. Stop when NWanted of them are, or when
		// the certifiable region already covers the whole initial disk.
		certNow := 0.9 * minUnconv
		certCount := 0
		for _, c := range converged {
			if c.dist < certNow {
				certCount++
			}
		}
		if certCount >= params.NWanted {
			break
		}
		if restart >= 1 && certNow >= rho0 {
			break
		}
	}

	sort.Slice(converged, func(i, j int) bool { return converged[i].dist < converged[j].dist })

	// Certified radius: nothing unconverged may hide inside the disk.
	certified := math.Inf(1)
	if !math.IsInf(minUnconv, 1) {
		certified = 0.9 * minUnconv
	}
	if res.Exhausted && math.IsInf(certified, 1) {
		// Entire reachable spectrum resolved: certify everything seen.
		certified = math.Inf(1)
	}

	rho := rho0
	nw := params.NWanted
	if len(converged) > nw {
		// Shrink: enclose exactly NWanted, midway to the next one out.
		rho = 0.5 * (converged[nw-1].dist + converged[nw].dist)
	} else if len(converged) > 0 {
		// Grow to the farthest converged eigenvalue (paper rule), bounded
		// by certification.
		far := converged[len(converged)-1].dist
		if far > rho {
			rho = far * (1 + 1e-9)
		}
	}
	if rho > certified {
		rho = certified
	}
	if math.IsInf(rho, 1) {
		// Fully resolved spectrum: choose a radius covering all converged.
		if len(converged) > 0 {
			rho = converged[len(converged)-1].dist * (1 + 1e-9)
			if rho < rho0 {
				rho = rho0
			}
		} else {
			rho = rho0
		}
	}
	for _, c := range converged {
		if c.dist <= rho {
			res.Eigenvalues = append(res.Eigenvalues, c.lambda)
			res.ResidualsM = append(res.ResidualsM, c.residM)
		}
	}
	res.Radius = rho
	return res, nil
}

// complexLane is SingleShift's lane: complex Krylov vectors of length
// inv.Dim(), locked as normalized Ritz vectors.
type complexLane struct {
	inv       ShiftInverter
	locked    [][]complex128
	warmStart []complex128
	fac       *Factorization
	ritz      *ritzSet
}

func (l *complexLane) sweep(cfg Config) (*ritzSet, int, bool, error) {
	start := RandomStart(cfg.Rng, l.inv.Dim())
	if l.warmStart != nil {
		// Explicit restart toward the closest unconverged Ritz vector,
		// with a small random component to escape invariant traps.
		for i := range start {
			start[i] = l.warmStart[i] + 0.02*start[i]
		}
	}
	// Drop the last sweep before running the next one, so that only one
	// basis is live at a time.
	l.fac, l.ritz, l.warmStart = nil, nil, nil
	fac, err := Run(l.inv, start, l.locked, cfg)
	if err != nil {
		return nil, 0, false, err
	}
	r, err := fac.ritz()
	if err != nil {
		return nil, 0, false, err
	}
	l.fac, l.ritz = fac, r
	return r, fac.OpApplies, fac.Invariant, nil
}

func (l *complexLane) lock(i int, lambda complex128, wantResid bool) float64 {
	x := l.fac.lift(l.ritz, i)
	l.locked = append(l.locked, normalized(x))
	if !wantResid {
		return 0
	}
	return baseResidual(l.inv, lambda, x)
}

func (l *complexLane) warm(i int) {
	l.warmStart = nil
	if i >= 0 {
		l.warmStart = l.fac.lift(l.ritz, i)
	}
}

// earlyExit builds the StopEarly check of every singleShift sweep: stop
// once NWanted eigenvalues are certifiable — the already converged
// convDists plus the projected problem's converged Ritz values, closer
// than 0.9× its nearest unconverged one — or, in a subspace of at least
// 30 steps, once that certifiable region covers 1.05·rho0. Only the residual estimates are needed, so the check reads
// the last row of the Schur vectors and forms no eigenvector.
func earlyExit(params SingleShiftParams, convDists []float64, rho0 float64) func(h *mat.CDense, hNext float64, steps int) bool {
	return func(h *mat.CDense, hNext float64, steps int) bool {
		s, err := mat.HessenbergSchur(h, mat.SchurLastRow)
		if err != nil {
			return false
		}
		last := s.LastComponents()
		minU := math.Inf(1)
		var newConv []float64
		for idx, mu := range s.Values {
			if mu == 0 {
				continue
			}
			dist := 1 / cmplx.Abs(mu)
			resid := hNext * last[idx]
			if resid <= params.Tol*cmplx.Abs(mu) {
				newConv = append(newConv, dist)
			} else if dist < minU {
				minU = dist
			}
		}
		certNow := 0.9 * minU
		count := 0
		for _, d := range convDists {
			if d < certNow {
				count++
			}
		}
		for _, d := range newConv {
			if d < certNow {
				count++
			}
		}
		if count >= params.NWanted {
			return true
		}
		// Emptiness certification needs a richer subspace before the
		// unconverged Ritz estimates can be trusted.
		return steps >= 30 && certNow >= 1.05*rho0
	}
}

// baseResidual computes ‖M·x − λ·x‖ when the inverter can apply M; x must
// have unit norm. Returns 0 when the base operator is unavailable.
func baseResidual(inv ShiftInverter, lambda complex128, x []complex128) float64 {
	bo, ok := inv.(BaseOperator)
	if !ok {
		return 0
	}
	y := make([]complex128, len(x))
	if err := bo.ApplyBase(y, x); err != nil {
		return 0
	}
	mat.CAxpy(-lambda, x, y)
	return mat.CNorm2(y)
}

func normalized(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	copy(out, v)
	var ss float64
	for _, z := range out {
		ss += real(z)*real(z) + imag(z)*imag(z)
	}
	n := math.Sqrt(ss)
	if n > 0 {
		inv := complex(1/n, 0)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}
