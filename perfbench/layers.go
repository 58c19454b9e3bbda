package main

import (
	"repro/internal/core"
)

// layerClosed derives the per-layer counters of a closed-loop traced pass
// from what the program already exports: Report.Solver / EnforceReport
// counters and, per engine, PhaseStats and ShiftCacheStats read after
// Close. all holds every pass of the run, untraced and traced, for the
// T01 repeat check.
func layerClosed(workload string, pass []opResult, all [][]opResult, res *result) {
	var st core.Stats
	phases := map[string]core.PhaseStat{}
	var hits, misses uint64
	var engineWall float64
	var iters int
	for _, r := range pass {
		st.Add(r.stats)
		for k, v := range r.phases {
			p := phases[k]
			p.Tasks += v.Tasks
			p.Busy += v.Busy
			phases[k] = p
		}
		hits += r.cache.Hits
		misses += r.cache.Misses
		if r.phases != nil {
			engineWall += r.engineWall.Seconds()
		}
		iters += r.iters
	}
	res.set("core.shifts", float64(st.ShiftsProcessed))
	res.set("core.tentative_deleted", float64(st.TentativeDeleted))
	res.set("core.restarts", float64(st.Restarts))
	res.set("core.applies", float64(st.OpApplies))
	res.set("core.restarts_per_shift", ratio(float64(st.Restarts), float64(st.ShiftsProcessed)))
	res.set("core.applies_per_shift", ratio(float64(st.OpApplies), float64(st.ShiftsProcessed)))
	res.set("hamiltonian.cache_hits", float64(hits))
	res.set("hamiltonian.cache_misses", float64(misses))
	res.set("hamiltonian.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	setPhases(phases, engineWall, res)
	if workload == "enforce" {
		res.set("passivity.enforce_iters", float64(iters))
		res.set("passivity.enforce_shifts", float64(st.ShiftsProcessed))
	}

	// The T01 solve is deterministic at one thread, so its counters must
	// repeat exactly across every solve of the run.
	var t01 []core.Stats
	for _, p := range all {
		for _, r := range p {
			if r.op.kind == opFig6 && r.err == nil {
				s := r.stats
				s.Elapsed = 0
				t01 = append(t01, s)
			}
		}
	}
	if len(t01) > 0 {
		same := 1.0
		for _, s := range t01[1:] {
			if s != t01[0] {
				same = 0
			}
		}
		res.set("core.t01_counts_repeat", same)
	}
}

// setPhases reports the pool's per-phase busy time and task counts, and
// the busy share: total busy time over workers × engine wall time. The
// share is not clamped, so double-counted busy time shows above 1.
func setPhases(phases map[string]core.PhaseStat, engineWall float64, res *result) {
	names := map[string]string{
		core.PhaseEig:        "core.eig",
		core.PhaseSetup:      "core.setup",
		core.PhaseRefine:     "core.refine",
		core.PhaseProbe:      "passivity.probe",
		core.PhaseConstraint: "passivity.constraint",
		core.PhaseFit:        "vectfit.fit",
	}
	var busy float64
	for phase, p := range phases {
		busy += p.Busy.Seconds()
		if n, ok := names[phase]; ok {
			res.set(n+"_busy_s", p.Busy.Seconds())
			res.set(n+"_tasks", float64(p.Tasks))
		}
	}
	res.set("core.busy_share", ratio(busy, float64(workers())*engineWall))
}

// layerReplay reports the replay's per-layer timings beside the solver's
// own counters (replay.*_vs_solver: replayed over the solver's count).
func layerReplay(st *replayStats, res *result) {
	res.set("hamiltonian.factor_s", st.factor.Seconds())
	res.set("hamiltonian.factors", float64(st.factors))
	res.set("hamiltonian.apply_s", st.apply.Seconds())
	res.set("hamiltonian.applies", float64(st.applies))
	res.setTiming("arnoldi.shift_s", st.shiftWall)
	res.set("arnoldi.krylov_self_s", st.krylov.Seconds())
	res.set("arnoldi.ritz_s", st.ritz.Seconds())
	res.set("mat.ceig_s", st.ceig.Seconds())
	res.set("replay.shifts", float64(st.shifts))
	res.set("replay.applies", float64(st.applies))
	res.set("replay.restarts", float64(st.restarts))
	res.set("replay.applies_vs_solver", ratio(float64(st.applies), res.metrics["core.applies"].value))
	res.set("replay.restarts_vs_solver", ratio(float64(st.restarts), res.metrics["core.restarts"].value))
}

// zeroUnmeasured sets every per-layer metric the workload did not
// exercise to 0, so each traced run reports the full list.
func zeroUnmeasured(res *result) {
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			res.set(d.name, 0)
		}
	}
}
