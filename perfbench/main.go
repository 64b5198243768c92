// Command perfbench measures the host-time cost of instrumented taskprov
// sessions, of persisting them and of analysing them, on three seeded
// workloads, and splits that cost by layer in a separate traced run.
//
//	bash perfbench/run.sh --workload xgboost-mem --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics, a span self-time table and the trace file's path. The
// last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}
//
// README.md describes the workloads, the metrics and how to read a trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric; better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of taskprov sees, printed with --trace 0.
// error_rate is the result's failed/attempted pair.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"session_s", "s", "lower"},
	{"persist_s", "s", "lower"},
	{"analysis_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, printed with --trace 1.
var perLayer = append([]metricDef{
	{"sim.bare_session_s", "s", "lower"},
	{"sim.bare_alloc_mb", "MB", "lower"},
	{"dask.tasks", "count", "higher"},
	{"core.events", "count", "higher"},
	{"core.collect_s", "s", "lower"},
	{"core.collect_us_per_event", "us", "lower"},
	{"core.collect_allocs_per_event", "count", "lower"},
	{"core.collect_bytes_per_event", "B", "lower"},
	{"core.mode_s", "s", "lower"},
	{"core.write_dir_bytes", "B", "lower"},
	{"mofka.encode_us_per_event", "us", "lower"},
	{"mofka.decode_us_per_event", "us", "lower"},
	{"mofka.append_us_per_event", "us", "lower"},
	{"wal.append_us_per_event", "us", "lower"},
	{"wal.open_s", "s", "lower"},
	{"wal.bytes", "B", "lower"},
	{"cluster.append_us_per_event", "us", "lower"},
	{"cluster.read_view_s", "s", "lower"},
	{"live.replay_s", "s", "lower"},
	{"darshan.dxt_segments", "count", "higher"},
	{"darshan.write_s", "s", "lower"},
	{"darshan.bytes", "B", "lower"},
	{"whatif.extract_s", "s", "lower"},
	{"whatif.critpath_s", "s", "lower"},
	{"whatif.replay_s", "s", "lower"},
	{"perfrecup.load_s", "s", "lower"},
	{"perfrecup.phases_s", "s", "lower"},
	{"perfrecup.views_s", "s", "lower"},
	{"perfrecup.attribute_io_s", "s", "lower"},
	{"perfrecup.critpath_s", "s", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.session_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}, cpuMetricDefs()...)

func cpuMetricDefs() []metricDef {
	defs := make([]metricDef, len(cpuMetrics))
	for i, m := range cpuMetrics {
		better := "lower"
		if m == "cpu.sim" || m == "cpu.dask" {
			better = "higher" // the simulated workflow itself, not overhead
		}
		defs[i] = metricDef{m, "%", better}
	}
	return defs
}

// setupRounds is how many set-up processes an end-to-end run times for the
// setup_s median. Traced runs report no setup_s and time none.
const setupRounds = 3

// minIterations keeps an end-to-end median meaningful when one iteration is
// long, as on the durable workload. A traced iteration runs four sessions
// and every layer probe, and per-layer metrics have no bound, so one is
// enough there.
const (
	minIterations      = 4
	minTraceIterations = 1
)

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workloadName := flag.String("workload", "", "workload to run (xgboost-mem, imageproc-durable, resnet-live-cluster)")
	seed := flag.Uint64("seed", 1, "benchmark seed; every session seed derives from it")
	seconds := flag.Float64("seconds", 25, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build/perfbench")
	setupOnly := flag.Bool("setup-only", false, "set up as a run does, print \"ready\" and exit; each setup_s sample times one such process")
	flag.Parse()

	wl, err := findWorkload(*workloadName)
	if err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	b, host, err := setUp(wl, *seed, *root)
	if b != nil {
		defer os.RemoveAll(b.work)
	}
	if err != nil {
		return err
	}
	if *setupOnly {
		fmt.Println("ready")
		return nil
	}
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostJSON)

	defs := endToEnd
	if *traceFlag == 0 {
		for i := 0; i < setupRounds; i++ {
			b.op("setup", func() error {
				secs, err := timeSetUp(wl, *seed, *root)
				if err == nil {
					b.add("setup_s", secs)
				}
				return err
			})
		}
		measure(*seconds, minIterations, b.e2eIteration)
		b.add("max_rss_mb", maxRSSBytes()/1e6)
	} else {
		defs = perLayer
		b.tr = newTracer()
		var profile []cpuSample
		measure(*seconds, minTraceIterations, func(i int) { b.traceIteration(i, &profile) })
		shares, n := cpuShares(profile)
		for _, m := range cpuMetrics {
			b.add(m, shares[m])
		}
		fmt.Printf("cpu profile: %d samples over the traced sessions; top packages by self samples:\n", n)
		printTopPackages(packageCounts(profile), n, 15)
	}

	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue)}
	res.Correct = b.attempted > 0 && b.failed == 0
	fmt.Printf("%-32s %14s %-6s %4s %14s %14s\n", "metric", "median", "unit", "n", "min", "max")
	for _, d := range defs {
		s := b.metrics[d.name]
		if len(s) == 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: no samples of %s\n", d.name)
			continue
		}
		med := s.median()
		lo, hi := s.bounds()
		fmt.Printf("%-32s %14.6g %-6s %4d %14.6g %14.6g\n", d.name, med, d.unit, len(s), lo, hi)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = metricValue{Value: med, Unit: d.unit}
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted operations)\n",
		float64(b.failed)/math.Max(1, float64(b.attempted)), b.failed, b.attempted)

	if b.tr != nil {
		printSelfTable(os.Stdout, b.tr.spans)
		path := filepath.Join(*root, ".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		if err := writeTrace(path, b.tr.spans); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(b.tr.spans), path)
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp is the work a run does before its first timed session: cap
// GOMAXPROCS, create the scratch dir that the data dirs go under, check the
// filesystem it is on, construct the workload and run one gated warm-up
// session. The caller removes b.work when b is not nil.
func setUp(wl workload, seed uint64, root string) (*bench, hostInfo, error) {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	work := filepath.Join(root, ".bench_build", "perfbench", "work", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, hostInfo{}, err
	}
	b := newBench(wl, seed, work, nil)
	host := collectHostInfo(work)
	if wl.durable && (host.WorkFS == "tmpfs" || host.WorkFS == "ramfs") {
		return b, host, fmt.Errorf("workload %s needs its data dir on a disk, but %s is on %s", wl.name, work, host.WorkFS)
	}
	if !b.op("warmup", b.warmUp) {
		return b, host, fmt.Errorf("set-up: the warm-up session failed")
	}
	return b, host, nil
}

// timeSetUp starts the benchmark again with -setup-only and returns the
// seconds from starting that process to its "ready" line. That covers
// process start, the whole of setUp, and nothing after: the child removes
// its scratch dir once it has printed the line.
func timeSetUp(wl workload, seed uint64, root string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", wl.name, "-seed", fmt.Sprint(seed), "-root", root)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	secs := time.Since(start).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up process printed %q, want \"ready\" (%v)", line, rerr)
	}
	return secs, nil
}

// measure calls iterate with 0, 1, 2, ... until the measuring time is spent
// and at least min iterations have run.
func measure(seconds float64, min int, iterate func(i int)) {
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < seconds; i++ {
		iterate(i)
	}
}

// printTopPackages prints the packages with the most self samples.
func printTopPackages(counts map[string]int64, total int64, top int) {
	pkgs := make([]string, 0, len(counts))
	for p := range counts {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(a, b int) bool {
		if counts[pkgs[a]] != counts[pkgs[b]] {
			return counts[pkgs[a]] > counts[pkgs[b]]
		}
		return pkgs[a] < pkgs[b]
	})
	for i, p := range pkgs {
		if i == top {
			break
		}
		fmt.Printf("  %6.2f%%  %-40s %s\n", 100*float64(counts[p])/float64(max(total, 1)), p, layerOf(p))
	}
}
