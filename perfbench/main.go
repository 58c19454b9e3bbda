// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed time, checks every output against a
// reference, and prints every metric by name with its unit and sample
// count. The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
//
//	perfbench --workload table1|enforce|daemon --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics object carries the end-to-end metrics; with
// --trace 1 the run is repeated with spans on and it carries the
// per-layer metrics. See README.md for what each workload and metric
// means, and refs.json for the oracle references the checks use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var cfg runConfig
	var trace int
	var genRefs bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: table1, enforce or daemon")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (inputs and schedule derive from it)")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 repeats the workload with spans on and prints per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root; generated files go under <root>/.bench_build")
	flag.BoolVar(&genRefs, "genrefs", false, "recompute refs.json with the dense oracle and exit")
	flag.Parse()
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	if genRefs {
		if err := writeRefs(cfg.root, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	refs, err := loadRefs(filepath.Join(cfg.root, "perfbench", "refs.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.suite = fullSuite(refs)
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	// build overrides <root>/.bench_build as the directory the run writes.
	build string
	suite *suite
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// workers is the load's parallelism: solver Threads and engine workers
// equal the CPU count.
func workers() int { return runtime.NumCPU() }

// buildDir is where the run may write: model cache, spans, job logs.
func (c runConfig) buildDir() string {
	if c.build != "" {
		return c.build
	}
	return filepath.Join(c.root, ".bench_build")
}

// run executes one workload (and, with trace on, its traced repeat) and
// collects every metric. Progress notes go to log as they happen.
func run(cfg runConfig, log io.Writer) (*result, error) {
	fmt.Fprintf(log, "env workload=%s seed=%d seconds=%g trace=%v %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, environment(cfg.root, cfg.buildDir()))
	switch cfg.workload {
	case "table1", "enforce":
		return runClosedLoop(cfg, log)
	case "daemon":
		return runDaemon(cfg, log)
	}
	return nil, fmt.Errorf("unknown workload %q (want table1, enforce or daemon)", cfg.workload)
}

// result is what one invocation reports.
type result struct {
	attempted int
	failed    int
	// failures describes each failed operation or check.
	failures []string
	// metrics holds every metric measured, by name.
	metrics map[string]metric
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// set records a metric measured once (a count or a derived value).
func (r *result) set(name string, value float64) {
	r.metrics[name] = metric{value: value, n: 1}
}

// setSample records a metric with its sample count.
func (r *result) setSample(name string, value float64, n int) {
	r.metrics[name] = metric{value: value, n: n}
}

// setTiming records a timing as its median, with the tail percentile
// beside it; value is the median.
func (r *result) setTiming(name string, samples []float64) {
	s := summarize(samples)
	r.metrics[name] = metric{value: s.p50, n: s.n, timing: true, tail: s.tail, tailQ: s.tailQ}
}

// metric is one measured value.
type metric struct {
	value  float64
	n      int
	timing bool
	tail   float64
	tailQ  float64
}

// printResult writes one line per metric, the failures, and the final
// JSON line carrying the metrics the benchmark contract names for this
// mode.
func printResult(w io.Writer, r *result, trace bool) error {
	for _, d := range allMetrics() {
		m, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("metric %-30s %14.6g %-6s n=%d", d.name, m.value, d.unit, m.n)
		if m.timing {
			line += fmt.Sprintf(" p50=%.6g p%.1f=%.6g", m.value, 100*m.tailQ, m.tail)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "metric %-30s %14.6g %-6s n=%d\n", "fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]json.RawMessage)}
	var missing []string
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, d.unit})
		if err != nil {
			return fmt.Errorf("metric %s: %w", d.name, err)
		}
		out.Metrics[d.name] = raw
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
