package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
)

// Closed-loop operation kinds.
const (
	opChar    = "characterize" // fleet characterization of one model
	opFig6    = "fig6"         // FindImagEigs at Threads 1 (ROADMAP's T01)
	opEnforce = "enforce"      // fleet enforcement of one model
)

// closedOp is one operation of a closed-loop pass.
type closedOp struct {
	kind string
	key  string
}

// opResult is what one closed-loop operation produced.
type opResult struct {
	op     closedOp
	role   string
	wall   time.Duration
	ttfc   time.Duration // 0 when no near-axis crossing was reported
	cpu    time.Duration // process CPU time the operation took
	stats  core.Stats
	phases map[string]core.PhaseStat
	cache  repro.CacheStats
	// engineWall is the engine's lifetime, for the busy share.
	engineWall time.Duration
	iters      int
	shifts     []shiftRec
	crossings  []float64
	err        error
}

// passOps is the seed-shuffled operation list of one pass.
func passOps(s *suite, workload string, seed int64) []closedOp {
	var ops []closedOp
	if workload == "enforce" {
		for _, k := range s.enforce {
			ops = append(ops, closedOp{opEnforce, k})
		}
	} else {
		for _, d := range s.models {
			ops = append(ops, closedOp{opChar, d.Key})
		}
		for i := 0; i < s.fig6Reps; i++ {
			ops = append(ops, closedOp{opFig6, s.fig6})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// opKeys lists the distinct models the operations use.
func opKeys(ops []closedOp) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, o := range ops {
		if !seen[o.key] {
			seen[o.key] = true
			keys = append(keys, o.key)
		}
	}
	return keys
}

// runClosedLoop runs the table1 or enforce workload: one client runs the
// pass's operations one after another, and passes repeat while the next
// one is expected to end within the timed window (at least one runs).
func runClosedLoop(cfg runConfig, log io.Writer) (*result, error) {
	s := cfg.suite
	ops := passOps(s, cfg.workload, cfg.seed)
	res := newResult()
	cache := modelCache{filepath.Join(cfg.buildDir(), "models")}

	// Set-up is loading the workload's models; it runs setupReps times and
	// the median is reported, so the first load (which may build the
	// models) does not set the figure.
	var setups []float64
	var models map[string]*repro.Model
	for i := 0; i < setupReps; i++ {
		m, d, err := cache.loadAll(s, opKeys(ops), workers())
		if err != nil {
			return nil, err
		}
		models = m
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", median(setups))

	untraced, alloc := closedPasses(cfg, s, ops, models, nil, log)
	scoreClosed(cfg, untraced, alloc, res)
	if !cfg.trace {
		return res, nil
	}

	res.set("statespace.load_s", median(setups))
	tr := newTracer()
	traced, alloc := closedPasses(cfg, s, ops, models, tr, log)
	tracedRes := newResult()
	scoreClosed(cfg, traced, alloc, tracedRes)
	res.attempted += tracedRes.attempted
	res.failed += tracedRes.failed
	res.failures = append(res.failures, tracedRes.failures...)
	res.set("trace.untraced_cpu_s", res.metrics["cpu_s"].value)
	res.set("trace.traced_cpu_s", tracedRes.metrics["cpu_s"].value)
	res.set("trace.overhead_cpu_s", tracedRes.metrics["cpu_s"].value-res.metrics["cpu_s"].value)

	layerClosed(cfg.workload, traced[0], append(untraced, traced...), res)
	var st replayStats
	for _, r := range traced[0] {
		if err := replayShifts(tr, fmt.Sprintf("%s/%s", r.op.kind, r.op.key), models[r.op.key], r.shifts, &st); err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.op.key, err)
		}
	}
	layerReplay(&st, res)
	zeroUnmeasured(res)
	return res, tr.write(filepath.Join(cfg.buildDir(), "spans"), fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed), log)
}

// closedPasses runs passes until the window is spent and returns each
// pass's operation results, and the MB the Go heap allocated per
// operation of the first pass. When no further pass fits, table1 fills
// the rest of the window with more T01 solves (at least one pass runs).
func closedPasses(cfg runConfig, s *suite, ops []closedOp, models map[string]*repro.Model, tr *tracer, log io.Writer) ([][]opResult, float64) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var passes [][]opResult
	var allocPerOp float64
	runOne := func(o closedOp) opResult {
		r := runOp(o, s, models[o.key], tr)
		fmt.Fprintf(log, "op %-12s %-9s %8.3f s err=%v\n", o.kind, o.key, r.wall.Seconds(), r.err)
		return r
	}
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last <= window {
		passStart := time.Now()
		alloc0 := totalAllocMB()
		var out []opResult
		for _, o := range ops {
			out = append(out, runOne(o))
		}
		if len(passes) == 0 {
			allocPerOp = (totalAllocMB() - alloc0) / float64(len(ops))
		}
		last = time.Since(passStart)
		passes = append(passes, out)
	}
	if s.fig6Reps > 0 && cfg.workload == "table1" {
		fill := closedOp{opFig6, s.fig6}
		var lastT01 time.Duration
		for time.Since(start)+lastT01 <= window {
			r := runOne(fill)
			lastT01 = r.wall
			passes[len(passes)-1] = append(passes[len(passes)-1], r)
		}
	}
	return passes, allocPerOp
}

// runOp runs one operation and checks its output. Engine counters are
// read after Engine.Close, which waits for the pool's workers, so every
// task's accounting is in the totals.
func runOp(o closedOp, s *suite, m *repro.Model, tr *tracer) opResult {
	r := opResult{op: o, role: s.def(o.key).Role}
	root := tr.begin(o.kind+"/"+o.key, "op."+o.kind, 0)
	defer tr.end(root)

	var firstCrossing atomic.Int64
	var mu sync.Mutex
	cpu0 := cpuTime()
	start := time.Now()
	progress := func(ev repro.ProgressEvent) {
		if ev.Phase != core.PhaseEig {
			return
		}
		if len(ev.NearAxis) > 0 {
			firstCrossing.CompareAndSwap(0, int64(time.Since(start)))
		}
		if tr != nil {
			mu.Lock()
			r.shifts = append(r.shifts, shiftRec{ev.Omega, ev.Radius})
			mu.Unlock()
		}
	}
	ref := s.refs[o.key]
	if o.kind == opFig6 {
		sol, err := repro.FindImagEigs(m, repro.SolverOptions{Threads: 1, Progress: progress})
		r.wall = time.Since(start)
		r.cpu = cpuTime() - cpu0
		r.ttfc = time.Duration(firstCrossing.Load())
		if r.err = err; err == nil {
			r.stats, r.crossings = sol.Stats, sol.Crossings
			r.err = checkCrossings(o.key, sol.Crossings, sol.OmegaMax, ref)
		}
		return r
	}

	eng := repro.NewFleetEngine(repro.FleetOptions{Workers: workers()})
	req := repro.FleetRequest{Model: m, Progress: progress}
	char := repro.CharOptions{Core: repro.SolverOptions{Threads: workers()}}
	if o.kind == opEnforce {
		req.Enforce = &repro.EnforceOptions{Char: char}
	} else {
		req.Char = char
	}
	var fr *repro.FleetResult
	job, err := eng.Submit(context.Background(), req)
	if err == nil {
		fr, err = job.Wait()
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	eng.Close()
	r.engineWall = time.Since(start)
	r.ttfc = time.Duration(firstCrossing.Load())
	r.phases = eng.PhaseStats()
	r.cache = eng.ShiftCacheStats()
	if r.err = err; err != nil {
		return r
	}
	switch er := fr.EnforceReport; {
	case o.kind == opEnforce && (er == nil || er.FinalReport == nil):
		r.err = fmt.Errorf("%s: enforcement returned no report", o.key)
	case o.kind == opEnforce && !er.FinalReport.Passive:
		r.err = fmt.Errorf("%s: enforced model not certified passive", o.key)
	case o.kind == opEnforce:
		r.stats, r.iters = er.SolverTotals, er.Iterations
	case fr.Report == nil:
		r.err = fmt.Errorf("%s: no report", o.key)
	default:
		r.stats, r.crossings = fr.Report.Solver, fr.Report.Crossings
		r.err = checkCrossings(o.key, fr.Report.Crossings, fr.Report.OmegaMax, ref)
	}
	return r
}

// scoreClosed turns the passes into the end-to-end metrics and counts
// every operation and failed check. On table1 a "job" is the repeated
// T01 solve; on enforce it is one model's enforcement.
func scoreClosed(cfg runConfig, passes [][]opResult, allocPerOp float64, res *result) {
	var jobs, jobsCPU, ttfc []float64
	roleSums := map[string][]float64{}
	var cpuSums []float64
	for _, pass := range passes {
		sums := map[string]float64{}
		var cpu float64
		for _, r := range pass {
			res.attempted++
			if r.err != nil {
				res.fail("%s %s: %v", r.op.kind, r.op.key, r.err)
			}
			if r.op.kind == opChar {
				sums[r.role] += r.wall.Seconds()
				if r.role == roleTable1 {
					cpu += r.cpu.Seconds()
				}
				continue
			}
			if r.op.kind == opEnforce {
				cpu += r.cpu.Seconds()
			}
			sums[r.op.kind] += r.wall.Seconds()
			jobs = append(jobs, float64(r.wall)/1e6)
			jobsCPU = append(jobsCPU, float64(r.cpu)/1e6)
			if r.ttfc > 0 {
				ttfc = append(ttfc, float64(r.ttfc)/1e6)
			}
		}
		for k, v := range sums {
			roleSums[k] = append(roleSums[k], v)
		}
		cpuSums = append(cpuSums, cpu)
	}
	res.set("alloc_mb", allocPerOp)
	res.set("peak_rss_mb", peakRSSMB())
	res.setTiming("cpu_s", cpuSums)
	res.setTiming("job_cpu_ms", jobsCPU)
	res.setTiming("job_p50_ms", jobs)
	res.setTiming("ttfc_p50_ms", ttfc)
	if cfg.workload == "enforce" {
		res.setTiming("enforce_s", roleSums[opEnforce])
		res.setTiming("work_s", roleSums[opEnforce])
		return
	}
	res.setTiming("table1_s", roleSums[roleTable1])
	res.setTiming("half_s", roleSums[roleHalf])
	res.setTiming("sparse_s", roleSums[roleSparse])
	res.setTiming("fig6_t01_s", secondsOf(jobs))
	res.setTiming("work_s", roleSums[roleTable1])
}

// secondsOf converts milliseconds to seconds.
func secondsOf(ms []float64) []float64 {
	out := make([]float64, len(ms))
	for i, v := range ms {
		out[i] = v / 1e3
	}
	return out
}
