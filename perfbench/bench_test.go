package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}

	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	var ours []string
	for _, w := range benchWorkloads {
		ours = append(ours, w.name)
	}
	sort.Strings(workloads)
	sort.Strings(ours)
	if !reflect.DeepEqual(workloads, ours) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", workloads, ours)
	}

	var e2e []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	var layers []metricDef
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the benchmark prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the benchmark prints %v", layers, perLayer)
	}
}

// TestSmokeWorkloads runs one end-to-end iteration of every workload through
// the correctness gate.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full session of each workload")
	}
	for _, wl := range benchWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			b := newBench(wl, 7, t.TempDir(), nil)
			b.e2eIteration(0)
			if b.failed != 0 || b.attempted != 5 {
				t.Fatalf("%d of %d operations failed", b.failed, b.attempted)
			}
			for _, m := range []string{"session_s", "persist_s", "analysis_s", "alloc_mb"} {
				if s := b.metrics[m]; len(s) != 1 || !(s[0] > 0) {
					t.Errorf("%s = %v, want one positive sample", m, s)
				}
			}
		})
	}
}

// TestSmokeTracedIteration runs one traced iteration of the durable
// workload, whose sessions get every kind of gate, and checks that each
// per-layer metric got a sample.
func TestSmokeTracedIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four sessions and every layer probe")
	}
	wl, err := findWorkload("imageproc-durable")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(wl, 7, t.TempDir(), newTracer())
	var profile []cpuSample
	b.traceIteration(0, &profile)
	if b.failed != 0 {
		t.Fatalf("%d of %d operations failed", b.failed, b.attempted)
	}
	for _, d := range perLayer {
		if !strings.HasPrefix(d.name, "cpu.") && len(b.metrics[d.name]) != 1 {
			t.Errorf("%s: %d samples, want 1", d.name, len(b.metrics[d.name]))
		}
	}
	if len(profile) == 0 {
		t.Error("the traced session left no CPU profile samples")
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
//
//	root   [0, 10]
//	  a    [1, 4]
//	    a1 [2, 3]
//	  b    [3, 6]   overlaps a
//	  c    [9, 12]  ends after root
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 2, Name: "a1", Start: 2, End: 3},
		{ID: 4, Parent: 1, Name: "b", Start: 3, End: 6},
		{ID: 5, Parent: 1, Name: "c", Start: 9, End: 12},
	}
	want := map[int]float64{
		1: 10 - 5 - 1, // children cover [1,6] and [9,10]
		2: 3 - 1,
		3: 1,
		4: 3,
		5: 3,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-12 {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setSession(3)
	outer := tr.start("outer", 1)
	inner := tr.start("inner", 10)
	inner.stop()
	sibling := tr.start("sibling", 1)
	sibling.stop()
	outer.stop()
	after := tr.start("after", 1)
	after.stop()

	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.Session != 3 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	want := map[string]int{"outer": 0, "inner": 1, "sibling": 1, "after": 0}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}

	var nilTracer *tracer
	if d := nilTracer.start("x", 1).stop(); d < 0 {
		t.Errorf("nil tracer timer measured %v", d)
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"taskprov/internal/mofka.(*Producer).PushRaw":                      "taskprov/internal/mofka",
		"taskprov/internal/mofka/wal.(*Log).Append":                        "taskprov/internal/mofka/wal",
		"encoding/json.(*encodeState).marshal":                             "encoding/json",
		"runtime.mallocgc":                                                 "runtime",
		"aeshashbody":                                                      "runtime",
		"slices.insertionSortCmpFunc[go.shape.struct { encoding/json.v }]": "slices",
		"taskprov/internal/sim.(*Kernel).Run.func1":                        "taskprov/internal/sim",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
	for pkg, want := range map[string]string{
		"taskprov/internal/mofka/cluster":   "cpu.cluster",
		"taskprov/internal/mofka":           "cpu.mofka",
		"taskprov/internal/perfrecup/frame": "cpu.perfrecup",
		"taskprov/internal/mochi/yokan":     "cpu.mochi",
		"internal/runtime/maps":             "cpu.runtime",
		gcPackage:                           "cpu.gc",
		"strconv":                           "cpu.other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

// spin burns CPU in this package so the profile has samples to classify.
func spin(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestCPUProfileShares(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := parseCPUProfile(f)
	if err != nil {
		t.Fatal(err)
	}
	counts := packageCounts(samples)
	if counts["taskprov/perfbench"]+counts["main"] == 0 {
		t.Errorf("no samples attributed to the spinning package: %v", counts)
	}
	shares, total := cpuShares(samples)
	if total == 0 {
		t.Fatal("empty profile")
	}
	sum := 0.0
	for _, m := range cpuMetrics {
		sum += shares[m]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
}
