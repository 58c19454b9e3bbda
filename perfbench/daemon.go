package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/store"
)

// daemonSizes sizes the daemon workload's traffic.
type daemonSizes struct {
	// ports and order size each interactive characterization.
	ports, order int
	// rate is the interactive Poisson arrival rate in jobs per second.
	rate float64
	// pool is the number of distinct interactive models; arrivals beyond
	// it repeat pool specs exactly.
	pool int
	// batchCase is the Table-I case ID, order and ports of the batch
	// client's enforcement job.
	batchCase [3]int
}

var fullDaemonSizes = daemonSizes{ports: 4, order: 120, rate: 1.5, pool: 30, batchCase: [3]int{1, 200, 20}}

// Fixed daemon inputs: every passiveEvery-th pool model is generated
// passive; the calibrated σ_max peaks of the non-passive and passive
// interactive models; the latency limit L on an interactive job's
// terminal event; and the Touchstone file the batch client uploads,
// relative to the repository root, with its port count.
const (
	passiveEvery = 5
	peak         = 1.05
	passivePeak  = 0.95
	sloMs        = 1000
	snpFile      = "perfbench/testdata/coupled.s2p"
	snpPorts     = 2
)

// The batch client's fixed job counts per window.
const (
	batchEnforce = 5
	batchUploads = 2
)

// genSpec is one interactive job's generated model.
type genSpec struct {
	Seed       int64   `json:"seed"`
	Ports      int     `json:"ports"`
	Order      int     `json:"order"`
	TargetPeak float64 `json:"target_peak"`
}

// daemonJob is one submitted job and what its client saw. Times are
// offsets from the job's due time (interactive) or send time (batch).
type daemonJob struct {
	kind     string // "interactive", "enforce" or "snp"
	spec     genSpec
	due      time.Time
	lag      time.Duration // send time minus due time
	admit    time.Duration // POST round trip
	first    time.Duration // POST sent to first SSE event
	ttfc     time.Duration // due to first crossing event (0 if none)
	done     time.Duration // due to terminal event (0 if none)
	cpu      time.Duration // process CPU time from POST to terminal event (batch jobs, which run alone)
	events   int
	rejected bool
	state    string
	doc      json.RawMessage // terminal job document
	err      error
}

// daemon is one in-process passivityd with its engine, store and HTTP
// front end, plus the client that talks to it over one HTTP/2
// connection.
type daemon struct {
	dir    string
	store  *store.Store
	engine *repro.Fleet
	srv    *repro.Passivityd
	http   *http.Server
	ln     net.Listener
	served chan error
	base   string
	client *http.Client
	start  time.Time
	conns  atomic.Int64
}

// startDaemon opens a fresh store under dir, builds the engine and the
// server, and starts serving on a loopback port.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, start: time.Now(), served: make(chan error, 1)}
	st, err := store.Open(filepath.Join(dir, "jobs.log"))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	d.store = st
	d.engine = repro.NewFleetEngine(repro.FleetOptions{Workers: workers(), MaxQueued: 256, FailFast: true})
	d.srv = repro.NewPassivityd(repro.PassivitydConfig{Engine: d.engine, Store: st})
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	d.http = &http.Server{Handler: d.srv, Protocols: &protos, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			d.conns.Add(1)
		}
	}}
	d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.engine.Close()
		st.Close()
		return nil, err
	}
	go func() { d.served <- d.http.Serve(d.ln) }()
	d.base = "http://" + d.ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{Protocols: &protos}}
	return d, nil
}

// stop drains the jobs, shuts the HTTP side down, closes the engine (its
// counters are final only after this) and the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.srv.BeginDrain()
	drainErr := d.srv.DrainJobs(ctx)
	d.client.CloseIdleConnections()
	shutErr := d.http.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) && shutErr == nil {
		shutErr = err
	}
	d.engine.Close()
	return errors.Join(drainErr, shutErr, d.store.Close())
}

// submit POSTs one job and follows its SSE stream to the terminal event.
// origin is the instant the job's latencies count from.
func (d *daemon) submit(ctx context.Context, j *daemonJob, contentType, path string, body []byte, origin time.Time, tr *tracer, name string) {
	root := tr.begin(name, "daemon.job", 0)
	defer tr.end(root)
	cpu0 := cpuTime()
	defer func() { j.cpu = cpuTime() - cpu0 }()
	sent := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		j.err = err
		return
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := d.client.Do(req)
	if err != nil {
		j.err = err
		return
	}
	var doc struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	posted := time.Now()
	j.admit = posted.Sub(sent)
	tr.record(name, "fleet.admit", root, sent, posted)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		j.rejected = true
		return
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Errorf("POST %s: %s: %s", path, resp.Status, doc.Error)
		return
	case err != nil:
		j.err = fmt.Errorf("POST %s: %w", path, err)
		return
	}
	sse := tr.begin(name, "server.sse", root)
	defer tr.end(sse)
	j.err = d.follow(ctx, doc.ID, j, origin, sent)
}

// follow reads a job's SSE stream until its terminal event; sent is when
// the job's POST went out.
func (d *daemon) follow(ctx context.Context, id string, j *daemonJob, origin, sent time.Time) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			now := time.Now()
			if j.events == 0 {
				j.first = now.Sub(sent)
			}
			j.events++
			switch typ {
			case "crossing":
				if j.ttfc == 0 {
					j.ttfc = now.Sub(origin)
				}
			case "report", "error", "canceled":
				j.done = now.Sub(origin)
				j.state = typ
				j.doc = json.RawMessage(strings.TrimPrefix(line, "data: "))
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: stream ended without a terminal event", id)
}

// schedule draws the interactive arrivals of one window from the seed: a
// Poisson process conditioned on its count, i.e. rate×window arrivals at
// sorted uniform offsets, so every seed offers the same load. The specs
// come from a fixed pool of generated models (every passiveEvery-th
// passive): each pool model is submitted once, in a seed-shuffled order,
// and the arrivals beyond the pool size exactly repeat seed-chosen pool
// specs. Every seed thus submits the same models; with fresh models per
// seed the interactive median moved by over 40 % between seeds.
func schedule(sz daemonSizes, seed int64, window time.Duration) ([]time.Duration, []genSpec) {
	rng := rand.New(rand.NewSource(seed))
	n := max(int(math.Round(sz.rate*window.Seconds())), 1)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	slices.Sort(dues)
	pool := make([]genSpec, sz.pool)
	for k := range pool {
		pool[k] = genSpec{Seed: int64(1001 + k), Ports: sz.ports, Order: sz.order, TargetPeak: peak}
		if k%passiveEvery == passiveEvery-1 {
			pool[k].TargetPeak = passivePeak
		}
	}
	specs := append([]genSpec(nil), pool...)
	for len(specs) < n {
		specs = append(specs, pool[rng.Intn(len(pool))])
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return dues, specs[:n]
}

// window is one timed daemon window's outcome.
type window struct {
	begin time.Time
	// interactiveCPU is the process CPU time of the interactive phase.
	interactiveCPU time.Duration
	interactive    []*daemonJob
	batch          []*daemonJob
	allocMB        float64
	queueMax       int
	conns          int64
	wall           time.Duration
	phases         map[string]repro.PhaseStat
	cache          repro.CacheStats
	logPath        string
}

// runWindow drives one daemon for the timed window with the open-loop
// interactive generator; once those jobs have drained, the batch client
// runs its jobs one after another, and the daemon is stopped.
func runWindow(cfg runConfig, d *daemon, snp []byte, tr *tracer) (*window, error) {
	sz := cfg.suite.daemon
	length := time.Duration(cfg.seconds * float64(time.Second))
	dues, specs := schedule(sz, cfg.seed, length)
	bodies := make([][]byte, len(specs))
	for i, spec := range specs {
		body, err := json.Marshal(map[string]any{"model": map[string]any{"generate": spec}, "priority": "interactive"})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	w := &window{logPath: filepath.Join(d.dir, "jobs.log")}
	ctx := context.Background()

	alloc0 := totalAllocMB()
	cpu0 := cpuTime()
	begin := time.Now()
	w.begin = begin
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				w.queueMax = max(w.queueMax, d.engine.QueueDepth())
			}
		}
	}()

	var jobs sync.WaitGroup
	for i, off := range dues { // the open-loop interactive generator
		due := begin.Add(off)
		time.Sleep(time.Until(due))
		j := &daemonJob{kind: "interactive", spec: specs[i], due: due, lag: time.Since(due)}
		w.interactive = append(w.interactive, j)
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			d.submit(ctx, j, "application/json", "/v1/jobs", bodies[i], due, tr, fmt.Sprintf("interactive-%d", i))
		}()
	}
	jobs.Wait()
	w.interactiveCPU = cpuTime() - cpu0
	// The batch client runs once the interactive jobs have drained, one
	// job at a time: enforcement jobs, then .snp uploads (Touchstone parse
	// + Vector Fitting). Run alongside the interactive jobs, a batch job
	// kept both workers busy and the interactive median moved by 34 %
	// between seeds (and by ±50 % with an upload in flight, whose fit tasks
	// the server runs at interactive priority).
	c := sz.batchCase
	enforce := []byte(fmt.Sprintf(`{"model":{"case":{"id":%d,"order":%d,"ports":%d}},"enforce":{}}`, c[0], c[1], c[2]))
	for i := 0; i < batchEnforce; i++ {
		j := &daemonJob{kind: "enforce"}
		d.submit(ctx, j, "application/json", "/v1/jobs", enforce, time.Now(), tr, fmt.Sprintf("enforce-%d", i))
		w.batch = append(w.batch, j)
	}
	for i := 0; i < batchUploads; i++ {
		j := &daemonJob{kind: "snp"}
		d.submit(ctx, j, "text/vnd.touchstone", fmt.Sprintf("/v1/jobs?ports=%d", snpPorts), snp, time.Now(), tr, fmt.Sprintf("snp-%d", i))
		w.batch = append(w.batch, j)
	}
	close(stopSampling)
	sampler.Wait()
	w.allocMB = totalAllocMB() - alloc0
	w.conns = d.conns.Load()
	stopErr := d.stop()
	w.wall = time.Since(d.start)
	w.phases = d.engine.PhaseStats()
	w.cache = d.engine.ShiftCacheStats()
	return w, stopErr
}

// checkWindow counts every job and checks its output. Interactive
// reports must equal a direct repro.Characterize of the same spec (all
// deterministic report fields, compared as JSON); enforcement jobs must
// end certified passive; .snp jobs must end done with a report.
func checkWindow(w *window, res *result) {
	direct := map[genSpec][]byte{}
	for i, j := range w.interactive {
		res.attempted++
		switch {
		case j.rejected:
			res.fail("interactive %d: refused (429)", i)
			continue
		case j.err != nil:
			res.fail("interactive %d: %v", i, j.err)
			continue
		case j.state != "report":
			res.fail("interactive %d: ended %s", i, j.state)
			continue
		}
		want, ok := direct[j.spec]
		if !ok {
			var err error
			want, err = directReport(j.spec)
			if err != nil {
				res.fail("interactive %d: direct characterization: %v", i, err)
				continue
			}
			direct[j.spec] = want
		}
		got, err := servedReport(j.doc)
		if err != nil {
			res.fail("interactive %d (spec %+v): %v", i, j.spec, err)
		} else if !bytes.Equal(got, want) {
			res.fail("interactive %d (spec %+v): served report differs from direct characterization: %s", i, j.spec, firstDiff(got, want))
		}
	}
	for i, j := range w.batch {
		res.attempted++
		var doc struct {
			State  string `json:"state"`
			Report *struct {
				Passive bool `json:"passive"`
			} `json:"report"`
			Enforce *struct{} `json:"enforce"`
		}
		switch {
		case j.rejected:
			res.fail("batch %d (%s): refused (429)", i, j.kind)
		case j.err != nil:
			res.fail("batch %d (%s): %v", i, j.kind, j.err)
		case j.state != "report" || json.Unmarshal(j.doc, &doc) != nil || doc.Report == nil:
			res.fail("batch %d (%s): ended %s without a report", i, j.kind, j.state)
		case j.kind == "enforce" && (doc.Enforce == nil || !doc.Report.Passive):
			res.fail("batch %d: enforced model not certified passive", i)
		}
	}
}

// firstDiff shows where two documents first differ, with some context.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Sprintf("served …%s… direct …%s…", got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// directReport characterizes the spec's model in process and returns
// the deterministic part of its wire report.
func directReport(s genSpec) ([]byte, error) {
	m, err := repro.GenerateModel(s.Seed, repro.GenOptions{Ports: s.Ports, Order: s.Order, TargetPeak: s.TargetPeak})
	if err != nil {
		return nil, err
	}
	rep, err := repro.Characterize(m, repro.CharOptions{Core: repro.SolverOptions{Threads: workers()}})
	if err != nil {
		return nil, err
	}
	doc := repro.NewReportDoc(rep)
	doc.Solver = repro.ReportDoc{}.Solver
	return json.Marshal(doc)
}

// servedReport extracts the deterministic part of a served job document's
// report, re-encoded the same way as directReport.
func servedReport(raw json.RawMessage) ([]byte, error) {
	var doc struct {
		Report *repro.ReportDoc `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if doc.Report == nil {
		return nil, errors.New("no report")
	}
	doc.Report.Solver = repro.ReportDoc{}.Solver
	return json.Marshal(doc.Report)
}

// runDaemon runs the daemon workload: set-up setupReps times (median
// reported), one untraced window, and with trace on a second, traced
// window with the per-layer read-outs.
func runDaemon(cfg runConfig, log io.Writer) (*result, error) {
	res := newResult()
	tmp := filepath.Join(cfg.buildDir(), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var setups []float64
	var d *daemon
	var snp []byte
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		data, err := os.ReadFile(filepath.Join(cfg.root, snpFile))
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmp, "daemon-")
		if err != nil {
			return nil, err
		}
		dd, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		snp = data
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(d.dir)
		}
		d = dd
	}
	res.set("setup_s", median(setups))
	fmt.Fprintf(log, "setup %v\n", setups)

	w, err := runWindow(cfg, d, snp, nil)
	os.RemoveAll(d.dir)
	if err != nil {
		return nil, err
	}
	checkWindow(w, res)
	scoreWindow(w, res, log)
	if !cfg.trace {
		return res, nil
	}

	dir, err := os.MkdirTemp(tmp, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err = startDaemon(dir)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tw, err := runWindow(cfg, d, snp, tr)
	if err != nil {
		return nil, err
	}
	traced := newResult()
	checkWindow(tw, traced)
	scoreWindow(tw, traced, io.Discard)
	res.attempted += traced.attempted
	res.failed += traced.failed
	res.failures = append(res.failures, traced.failures...)
	res.set("trace.untraced_cpu_s", res.metrics["cpu_s"].value)
	res.set("trace.traced_cpu_s", traced.metrics["cpu_s"].value)
	res.set("trace.overhead_cpu_s", traced.metrics["cpu_s"].value-res.metrics["cpu_s"].value)
	if err := layerDaemon(tw, snp, res); err != nil {
		return nil, err
	}
	zeroUnmeasured(res)
	return res, tr.write(filepath.Join(cfg.buildDir(), "spans"), fmt.Sprintf("daemon-seed%d", cfg.seed), log)
}

// scoreWindow turns one window's jobs into the end-to-end metrics.
func scoreWindow(w *window, res *result, log io.Writer) {
	var jobs, ttfc, lag, enforce, enforceCPU, enforceTTFC, snpJobs []float64
	ok := 0
	for i, j := range w.interactive {
		fmt.Fprintf(log, "job interactive %-3d due=%7.3f s done=%8.1f ms ttfc=%8.1f ms events=%d seed=%d peak=%g err=%v\n",
			i, j.due.Sub(w.begin).Seconds(), float64(j.done)/1e6, float64(j.ttfc)/1e6, j.events, j.spec.Seed, j.spec.TargetPeak, j.err)
		lag = append(lag, float64(j.lag)/1e6)
		if j.err != nil || j.rejected || j.state != "report" {
			continue
		}
		ms := float64(j.done) / 1e6
		jobs = append(jobs, ms)
		if ms <= sloMs {
			ok++
		}
		if j.ttfc > 0 {
			ttfc = append(ttfc, float64(j.ttfc)/1e6)
		}
	}
	for _, j := range w.batch {
		if j.err != nil || j.rejected || j.state != "report" {
			continue
		}
		if j.kind == "snp" {
			snpJobs = append(snpJobs, j.done.Seconds())
			continue
		}
		enforce = append(enforce, float64(j.done)/1e6)
		enforceCPU = append(enforceCPU, float64(j.cpu)/1e6)
		if j.ttfc > 0 {
			enforceTTFC = append(enforceTTFC, float64(j.ttfc)/1e6)
		}
	}
	// A daemon "job" in the generic metrics is a batch enforcement job:
	// they run one at a time, so each one's process CPU time is its own.
	// The interactive latencies moved by 41 % (median) and 30 % (first
	// crossing) between seeds, with each job's store fsyncs on its
	// critical path; they print under their own names.
	res.setTiming("cpu_s", []float64{w.interactiveCPU.Seconds()})
	res.setTiming("job_cpu_ms", enforceCPU)
	res.setTiming("job_p50_ms", enforce)
	res.setTiming("ttfc_p50_ms", enforceTTFC)
	res.setTiming("batch_p50_s", secondsOf(enforce))
	res.setTiming("interactive_p50_ms", jobs)
	res.setSample("interactive_tail_ms", summarize(jobs).tail, len(jobs))
	res.setTiming("interactive_ttfc_p50_ms", ttfc)
	res.setSample("interactive_ttfc_tail_ms", summarize(ttfc).tail, len(ttfc))
	res.setTiming("snp_s", snpJobs)
	res.setTiming("work_s", snpJobs)
	res.setSample("slo_ok_ratio", ratio(float64(ok), float64(len(w.interactive))), len(w.interactive))
	res.set("slo_limit_ms", sloMs)
	res.set("interactive_sent", float64(len(w.interactive)))
	res.setTiming("gen_lag_p50_ms", lag)
	res.setSample("gen_lag_max_ms", summarize(lag).maxed, len(lag))
	res.set("alloc_mb", w.allocMB/float64(max(len(w.interactive)+len(w.batch), 1)))
	res.set("peak_rss_mb", peakRSSMB())
	fmt.Fprintf(log, "http connections opened: %d\n", w.conns)
}

// layerDaemon derives the daemon's per-layer metrics from the traced
// window: client-side admission and SSE timings, the engine's counters
// (read after Close), the job log reopened after the run, and append
// latencies from replaying the log's records onto a fresh store.
func layerDaemon(w *window, snp []byte, res *result) error {
	var admit, first []float64
	events, rejected, submitted, iters := 0, 0, 0, 0
	var st core.Stats
	for _, j := range append(append([]*daemonJob(nil), w.interactive...), w.batch...) {
		submitted++
		if j.rejected {
			rejected++
			continue
		}
		if j.err != nil {
			continue
		}
		admit = append(admit, float64(j.admit)/1e6)
		first = append(first, float64(j.first)/1e6)
		events += j.events
		var doc struct {
			Report  *repro.ReportDoc `json:"report"`
			Enforce *struct {
				Iterations int `json:"iterations"`
			} `json:"enforce"`
		}
		if json.Unmarshal(j.doc, &doc) == nil && doc.Enforce != nil {
			iters += doc.Enforce.Iterations
		}
		if json.Unmarshal(j.doc, &doc) == nil && doc.Report != nil {
			st.ShiftsProcessed += doc.Report.Solver.ShiftsProcessed
			st.TentativeDeleted += doc.Report.Solver.TentativeDeleted
			st.Restarts += doc.Report.Solver.Restarts
			st.OpApplies += doc.Report.Solver.OpApplies
		}
	}
	s := summarize(admit)
	res.set("fleet.admit_p50_ms", s.p50)
	res.set("fleet.admit_tail_ms", s.tail)
	res.set("fleet.queue_depth_max", float64(w.queueMax))
	res.set("fleet.reject_ratio", ratio(float64(rejected), float64(submitted)))
	res.set("fleet.submitted", float64(submitted))
	res.set("passivity.enforce_iters", float64(iters))
	res.set("server.first_event_ms", median(first))
	res.set("server.sse_events_per_job", ratio(float64(events), float64(len(admit))))
	res.set("core.shifts", float64(st.ShiftsProcessed))
	res.set("core.tentative_deleted", float64(st.TentativeDeleted))
	res.set("core.restarts", float64(st.Restarts))
	res.set("core.applies", float64(st.OpApplies))
	res.set("core.restarts_per_shift", ratio(float64(st.Restarts), float64(st.ShiftsProcessed)))
	res.set("core.applies_per_shift", ratio(float64(st.OpApplies), float64(st.ShiftsProcessed)))
	res.set("hamiltonian.cache_hits", float64(w.cache.Hits))
	res.set("hamiltonian.cache_misses", float64(w.cache.Misses))
	res.set("hamiltonian.cache_hit_ratio", ratio(float64(w.cache.Hits), float64(w.cache.Hits+w.cache.Misses)))
	setPhases(w.phases, w.wall.Seconds(), res)

	var parse []float64
	for _, j := range w.batch {
		if j.kind != "snp" {
			continue
		}
		start := time.Now()
		if _, err := repro.ParseTouchstone(bytes.NewReader(snp), snpPorts); err != nil {
			return fmt.Errorf("parse touchstone: %w", err)
		}
		parse = append(parse, time.Since(start).Seconds())
	}
	res.set("touchstone.parse_s", median(parse))

	records, size, err := logFrames(w.logPath)
	if err != nil {
		return err
	}
	jobs := float64(max(submitted-rejected, 1))
	res.set("store.records_per_job", float64(records)/jobs)
	res.set("store.bytes_per_job", float64(size)/jobs)
	appends, err := replayAppends(w.logPath)
	if err != nil {
		return err
	}
	s = summarize(appends)
	res.set("store.append_p50_ms", s.p50)
	res.set("store.append_tail_ms", s.tail)
	return nil
}

// logFrames counts the records of a job log and its size, reading the
// documented framing: an 8-byte magic, then [len u32le][crc u32le][payload].
func logFrames(path string) (int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	// Reopening validates the whole log (framing, checksums, replay).
	st, err := store.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen job log: %w", err)
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	n := 0
	for off := 8; off+8 <= len(data); n++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	return n, int64(len(data)), nil
}

// replayAppends reopens a job log and appends its recovered records
// (job starts, events, terminals) to a fresh store in the same
// directory, timing each fsync'd append in ms.
func replayAppends(path string) ([]float64, error) {
	src, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	jobs := src.Recovered()
	if err := src.Close(); err != nil {
		return nil, err
	}
	dstPath := filepath.Join(filepath.Dir(path), "replay.log")
	dst, err := store.Open(dstPath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(dstPath)
	var ms []float64
	timed := func(f func() error) error {
		start := time.Now()
		err := f()
		ms = append(ms, float64(time.Since(start))/1e6)
		return err
	}
	for _, js := range jobs {
		if err := timed(func() error { return dst.AppendJobStart(js.ID, js.Spec, js.Model) }); err != nil {
			dst.Close()
			return nil, err
		}
		for _, ev := range js.Events {
			if err := timed(func() error { return dst.AppendEvent(js.ID, ev) }); err != nil {
				dst.Close()
				return nil, err
			}
		}
		if js.Terminal != nil {
			if err := timed(func() error { return dst.AppendTerminal(js.ID, *js.Terminal) }); err != nil {
				dst.Close()
				return nil, err
			}
		}
	}
	return ms, dst.Close()
}
