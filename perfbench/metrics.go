package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: every workload reports all
// of them (README.md gives each one's meaning per workload). The list
// matches end_to_end in BENCHMARK.json. Compute is gated as process CPU
// time, which host steal does not inflate; the wall-clock figures print
// beside it (see reportOnly).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"job_cpu_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// reportOnly are end-to-end figures printed for readers but kept out of
// the JSON line: the wall-clock times, which moved by up to 2× between
// runs while the host stole CPU time; figures that apply to one workload
// only; and fail_ratio, which reads 0 on a healthy run and travels as
// attempted/failed.
var reportOnly = []metricDef{
	{"work_s", "s"},
	{"job_p50_ms", "ms"},
	{"ttfc_p50_ms", "ms"},
	{"table1_s", "s"},
	{"half_s", "s"},
	{"sparse_s", "s"},
	{"fig6_t01_s", "s"},
	{"enforce_s", "s"},
	{"batch_p50_s", "s"},
	{"snp_s", "s"},
	{"interactive_p50_ms", "ms"},
	{"interactive_tail_ms", "ms"},
	{"interactive_ttfc_p50_ms", "ms"},
	{"interactive_ttfc_tail_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"slo_limit_ms", "ms"},
	{"interactive_sent", "count"},
	{"gen_lag_p50_ms", "ms"},
	{"gen_lag_max_ms", "ms"},
}

// perLayer are the metrics of a traced run, matching per_layer in
// BENCHMARK.json. Every workload reports all of them; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"statespace.load_s", "s"},
	{"hamiltonian.factor_s", "s"},
	{"hamiltonian.factors", "count"},
	{"hamiltonian.apply_s", "s"},
	{"hamiltonian.applies", "count"},
	{"hamiltonian.cache_hit_ratio", "ratio"},
	{"hamiltonian.cache_hits", "count"},
	{"hamiltonian.cache_misses", "count"},
	{"arnoldi.shift_s", "s"},
	{"arnoldi.krylov_self_s", "s"},
	{"arnoldi.ritz_s", "s"},
	{"mat.ceig_s", "s"},
	{"core.shifts", "count"},
	{"core.tentative_deleted", "count"},
	{"core.restarts", "count"},
	{"core.applies", "count"},
	{"core.restarts_per_shift", "count"},
	{"core.applies_per_shift", "count"},
	{"core.t01_counts_repeat", "bool"},
	{"core.eig_busy_s", "s"},
	{"core.eig_tasks", "count"},
	{"core.setup_busy_s", "s"},
	{"core.setup_tasks", "count"},
	{"core.refine_busy_s", "s"},
	{"core.refine_tasks", "count"},
	{"core.busy_share", "ratio"},
	{"passivity.probe_busy_s", "s"},
	{"passivity.probe_tasks", "count"},
	{"passivity.constraint_busy_s", "s"},
	{"passivity.constraint_tasks", "count"},
	{"passivity.enforce_iters", "count"},
	{"passivity.enforce_shifts", "count"},
	{"vectfit.fit_busy_s", "s"},
	{"vectfit.fit_tasks", "count"},
	{"touchstone.parse_s", "s"},
	{"fleet.admit_p50_ms", "ms"},
	{"fleet.admit_tail_ms", "ms"},
	{"fleet.queue_depth_max", "count"},
	{"fleet.reject_ratio", "ratio"},
	{"fleet.submitted", "count"},
	{"server.first_event_ms", "ms"},
	{"server.sse_events_per_job", "count"},
	{"store.records_per_job", "count"},
	{"store.bytes_per_job", "B"},
	{"store.append_p50_ms", "ms"},
	{"store.append_tail_ms", "ms"},
	{"replay.shifts", "count"},
	{"replay.applies", "count"},
	{"replay.restarts", "count"},
	{"replay.applies_vs_solver", "ratio"},
	{"replay.restarts_vs_solver", "ratio"},
	{"trace.untraced_cpu_s", "s"},
	{"trace.traced_cpu_s", "s"},
	{"trace.overhead_cpu_s", "s"},
}

// allMetrics lists every metric in print order.
func allMetrics() []metricDef {
	out := append([]metricDef(nil), endToEnd...)
	out = append(out, reportOnly...)
	return append(out, perLayer...)
}

// stats summarizes a sample.
type stats struct {
	n         int
	p50, tail float64
	tailQ     float64 // the tail's quantile
	maxed     float64
}

// summarize returns the median and the tail: the highest nearest-rank
// percentile that still has at least ten samples above it, and never
// below the median. Below 21 samples no percentile above the median has
// ten samples beyond it, so the tail is the median itself.
func summarize(xs []float64) stats {
	s := stats{n: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.maxed = v[len(v)-1]
	s.p50 = median(v)
	s.tail, s.tailQ = s.p50, 0.5
	if i := len(v) - 11; i >= 0 && v[i] > s.p50 {
		s.tail, s.tailQ = v[i], float64(i+1)/float64(len(v))
	}
	return s
}

// median of a sorted or unsorted sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the process's CPU time so far (user + system). Unlike wall
// time it does not count time the host took the CPUs away (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAllocMB is the Go heap's cumulative allocation in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// environment describes the host for the output header: CPU count,
// GOMAXPROCS, Go version, the commit under test and the filesystem type
// of dir, the build directory that holds the daemon's job log.
func environment(root, dir string) string {
	commit := gitHead(root)
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s store_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, fsType(dir))
}

// gitHead reads the commit checked out in root from root/.git, without
// looking outside root; "unknown" when root is not a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
