package main

import (
	"math/rand"
	"time"

	"repro"
	"repro/internal/arnoldi"
	"repro/internal/mat"
)

// shiftRec is one certified shift as the solver reported it through
// Progress: where it sat and the disk it certified.
type shiftRec struct{ omega, radius float64 }

// replayStats accumulates the per-layer timings and counts of a replay.
type replayStats struct {
	shifts    int
	factors   int
	factor    time.Duration
	applies   int
	apply     time.Duration
	restarts  int
	shiftWall []float64 // seconds per replayed SingleShift call
	krylov    time.Duration
	ritz      time.Duration
	ceig      time.Duration
}

// timedInv wraps the complex shift operator handed to arnoldi.SingleShift,
// timing and counting its applies. It forwards Theta and ApplyBase, so the
// iteration and its residuals are the same as with the bare operator.
type timedInv struct {
	inv     arnoldi.ShiftInverter
	base    arnoldi.BaseOperator
	applies int
	dur     time.Duration
}

func (t *timedInv) Dim() int          { return t.inv.Dim() }
func (t *timedInv) Theta() complex128 { return t.inv.Theta() }
func (t *timedInv) Apply(y, x []complex128) error {
	start := time.Now()
	err := t.inv.Apply(y, x)
	t.dur += time.Since(start)
	t.applies++
	return err
}
func (t *timedInv) ApplyBase(y, x []complex128) error { return t.base.ApplyBase(y, x) }

// timedRealInv is timedInv for the half-size path's real operator.
type timedRealInv struct {
	inv     arnoldi.RealShiftInverter
	base    arnoldi.RealBaseOperator
	applies int
	dur     time.Duration
}

func (t *timedRealInv) Dim() int          { return t.inv.Dim() }
func (t *timedRealInv) Theta() complex128 { return t.inv.Theta() }
func (t *timedRealInv) Apply(y, x []float64) error {
	start := time.Now()
	err := t.inv.Apply(y, x)
	t.dur += time.Since(start)
	t.applies++
	return err
}
func (t *timedRealInv) ApplyBase(y, x []float64) error { return t.base.ApplyBase(y, x) }

// replayShifts re-runs every recorded shift of one job through the same
// public calls the solver's per-shift step makes (Op.HalfRouted,
// Op.SweepTheta, Op/HalfOp.ShiftInvert, arnoldi.SingleShift/SingleShiftReal)
// and times each layer from outside. After each shift it runs one more
// Krylov sweep (arnoldi.Run/RunReal) to time the sweep's own work apart
// from its applies, its Ritz extraction (RitzPairs) and the dense
// eigensolution inside it (mat.CEig on the same H).
func replayShifts(tr *tracer, job string, m *repro.Model, shifts []shiftRec, st *replayStats) error {
	op, err := repro.NewHamiltonian(m, repro.Scattering)
	if err != nil {
		return err
	}
	for i, sh := range shifts {
		root := tr.begin(job, "replay.shift", 0)
		if err := replayOne(tr, job, root, op, sh, int64(i+1), st); err != nil {
			return err
		}
		tr.end(root)
		st.shifts++
	}
	return nil
}

func replayOne(tr *tracer, job string, parent int, op *repro.Hamiltonian, sh shiftRec, seed int64, st *replayStats) error {
	params := arnoldi.SingleShiftParams{Seed: seed}
	cfg := arnoldi.Config{Rng: rand.New(rand.NewSource(seed))}
	if op.HalfRouted(sh.omega, sh.radius) {
		h := op.Half()
		start := time.Now()
		so, err := h.ShiftInvert(op.SweepTheta(sh.omega, sh.radius))
		if err != nil {
			return err
		}
		defer so.Release()
		st.note(tr, job, parent, "hamiltonian.factor", start)
		inv := &timedRealInv{inv: so, base: so}
		start = time.Now()
		res, err := arnoldi.SingleShiftReal(inv, sh.radius*(sh.radius+2*sh.omega), params)
		if err != nil {
			return err
		}
		st.shiftWall = append(st.shiftWall, time.Since(start).Seconds())
		tr.record(job, "arnoldi.singleshift", parent, start, time.Now())
		st.restarts += res.Restarts
		st.applies += inv.applies
		st.apply += inv.dur

		sweep := &timedRealInv{inv: so, base: so}
		start = time.Now()
		f, err := arnoldi.RunReal(sweep, arnoldi.RandomStartReal(cfg.Rng, so.Dim()), nil, cfg)
		if err != nil {
			return err
		}
		st.krylov += time.Since(start) - sweep.dur
		tr.record(job, "arnoldi.run", parent, start, time.Now())
		return st.ritzAndCEig(tr, job, parent, f.RitzPairs, f.H)
	}
	start := time.Now()
	so, err := op.ShiftInvert(complex(0, sh.omega))
	if err != nil {
		return err
	}
	defer so.Release()
	st.note(tr, job, parent, "hamiltonian.factor", start)
	inv := &timedInv{inv: so, base: so}
	start = time.Now()
	res, err := arnoldi.SingleShift(inv, sh.radius, params)
	if err != nil {
		return err
	}
	st.shiftWall = append(st.shiftWall, time.Since(start).Seconds())
	tr.record(job, "arnoldi.singleshift", parent, start, time.Now())
	st.restarts += res.Restarts
	st.applies += inv.applies
	st.apply += inv.dur

	sweep := &timedInv{inv: so, base: so}
	start = time.Now()
	f, err := arnoldi.Run(sweep, arnoldi.RandomStart(cfg.Rng, so.Dim()), nil, cfg)
	if err != nil {
		return err
	}
	st.krylov += time.Since(start) - sweep.dur
	tr.record(job, "arnoldi.run", parent, start, time.Now())
	return st.ritzAndCEig(tr, job, parent, f.RitzPairs, f.H)
}

// note closes a factorization timed from start.
func (st *replayStats) note(tr *tracer, job string, parent int, name string, start time.Time) {
	end := time.Now()
	st.factors++
	st.factor += end.Sub(start)
	tr.record(job, name, parent, start, end)
}

// ritzAndCEig times the sweep's Ritz extraction and, separately, the
// dense eigensolution of the same projected matrix.
func (st *replayStats) ritzAndCEig(tr *tracer, job string, parent int, ritz func() ([]arnoldi.RitzPair, error), h *mat.CDense) error {
	start := time.Now()
	if _, err := ritz(); err != nil {
		return err
	}
	end := time.Now()
	st.ritz += end.Sub(start)
	tr.record(job, "arnoldi.ritz", parent, start, end)
	start = time.Now()
	if _, _, err := mat.CEig(h); err != nil {
		return err
	}
	end = time.Now()
	st.ceig += end.Sub(start)
	tr.record(job, "mat.ceig", parent, start, end)
	return nil
}
