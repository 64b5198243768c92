package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup"
	"taskprov/internal/workloads"
)

// bench is one benchmark process: a workload, a seed, the scratch directory
// its sessions write into, and the samples gathered so far.
type bench struct {
	wl   workload
	seed uint64
	work string  // scratch root, on the checkout's disk
	tr   *tracer // nil in untraced runs

	metrics   map[string]samples
	attempted int
	failed    int
}

func newBench(wl workload, seed uint64, work string, tr *tracer) *bench {
	return &bench{wl: wl, seed: seed, work: work, tr: tr, metrics: make(map[string]samples)}
}

func (b *bench) add(metric string, v float64) { b.metrics[metric] = append(b.metrics[metric], v) }

// op runs one counted operation; its failure counts toward error_rate. The
// heap is collected first, so an operation does not pay for the garbage of
// the one before it. In traced runs the operation gets a span of its own,
// "op.<name>".
func (b *bench) op(name string, fn func() error) bool {
	b.attempted++
	runtime.GC()
	t := b.tr.start("op."+name, 1)
	err := fn()
	t.stop()
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", b.wl.name, name, err)
		return false
	}
	return true
}

// sessionCost is what one session cost the host.
type sessionCost struct {
	seconds float64
	alloc   float64 // bytes allocated (MemStats.TotalAlloc delta)
	mallocs float64 // heap objects allocated (MemStats.Mallocs delta)
}

// runSession times core.NewSession -> Session.Execute -> Session.Close, the
// span of one `taskprov run`.
func (b *bench) runSession(cfg core.SessionConfig, tr *tracer) (*core.RunArtifacts, sessionCost, error) {
	wf, err := workloads.New(b.wl.workflow)
	if err != nil {
		return nil, sessionCost{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	total := tr.start("session", 1)
	t := tr.start("core.NewSession", 1)
	s, err := core.NewSession(cfg, wf, nil)
	t.stop()
	if err != nil {
		total.stop()
		return nil, sessionCost{}, err
	}
	t = tr.start("core.Session.Execute", 1)
	art, err := s.Execute()
	t.stop()
	t = tr.start("core.Session.Close", 1)
	cerr := s.Close()
	t.stop()
	secs := total.stop()

	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, sessionCost{}, err
	}
	if cerr != nil {
		return nil, sessionCost{}, cerr
	}
	return art, sessionCost{
		seconds: secs,
		alloc:   float64(after.TotalAlloc - before.TotalAlloc),
		mallocs: float64(after.Mallocs - before.Mallocs),
	}, nil
}

// viewCost splits the view part of analysis_s by call.
type viewCost struct {
	phases, views, attributeIO, critPath float64
}

func (v viewCost) total() float64 { return v.phases + v.views + v.attributeIO + v.critPath }

// load reads a persisted run back: through perfrecup.LoadEventLog from the
// data dir on durable workloads, core.LoadDir from the run directory
// otherwise.
func (b *bench) load(runDir, dataDir string) (*core.RunArtifacts, float64, error) {
	if b.wl.durable {
		t := b.tr.start("perfrecup.LoadEventLog", 1)
		art, err := perfrecup.LoadEventLog(dataDir)
		return art, t.stop(), err
	}
	t := b.tr.start("core.LoadDir", 1)
	art, err := core.LoadDir(runDir)
	return art, t.stop(), err
}

// views computes the paper's views from loaded artifacts.
func (b *bench) views(art *core.RunArtifacts) (viewCost, error) {
	var c viewCost
	t := b.tr.start("perfrecup.Phases", 1)
	_, err := perfrecup.Phases(art)
	c.phases = t.stop()
	if err != nil {
		return c, err
	}

	views := b.tr.start("views", 1)
	t = b.tr.start("perfrecup.CommScatter", 1)
	_, err = perfrecup.CommScatter(art)
	t.stop()
	if err == nil {
		t = b.tr.start("perfrecup.ParallelCoords", 1)
		_, err = perfrecup.ParallelCoords(art)
		t.stop()
	}
	if err == nil {
		t = b.tr.start("perfrecup.WarningHistogram", 1)
		_, err = perfrecup.WarningHistogram(art, 100)
		t.stop()
	}
	c.views = views.stop()
	if err != nil {
		return c, err
	}

	t = b.tr.start("perfrecup.AttributeIOToTasks", 1)
	_, err = perfrecup.AttributeIOToTasks(art)
	c.attributeIO = t.stop()
	if err != nil {
		return c, err
	}

	t = b.tr.start("perfrecup.RenderCritPath", 1)
	_, err = perfrecup.RenderCritPath(art)
	c.critPath = t.stop()
	return c, err
}

// check is the correctness gate on one session: the collector's count
// matches the broker, the critical-path digest exists, and the gate views
// are byte-identical across the in-memory artifacts, the WriteDir -> LoadDir
// round trip and, on durable workloads, the event log.
func (b *bench) check(art, loaded *core.RunArtifacts, runDir string) error {
	if err := checkSession(art); err != nil {
		return err
	}
	want, err := viewDigests(art)
	if err != nil {
		return err
	}
	roundTrip := loaded
	if b.wl.durable {
		if err := sameViews(want, loaded, "perfrecup.LoadEventLog"); err != nil {
			return err
		}
		if roundTrip, err = core.LoadDir(runDir); err != nil {
			return err
		}
	}
	return sameViews(want, roundTrip, "the WriteDir -> LoadDir round trip")
}

// cleanup removes an iteration's scratch directory. It is never inside a
// timed call, but it can take seconds: deleting fsynced files is slow on
// disks mounted with online discard.
func (b *bench) cleanup(dir string) {
	t := b.tr.start("os.RemoveAll", 1)
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	t.stop()
}

// iterDirs names an iteration's scratch directories.
func (b *bench) iterDirs(i int) (root, dataDir, runDir string) {
	root = filepath.Join(b.work, fmt.Sprintf("iter-%04d", i))
	return root, filepath.Join(root, "data"), filepath.Join(root, "run")
}

// warmUp runs one session with in-memory collection and gates it, so caches
// fill and lazy initialisation finishes before any timed session. It keeps
// its events in memory even on durable workloads: deleting a data dir of
// fsynced files takes seconds on disks mounted with online discard. Every
// set-up of a run warms up on the same seed, so setup_s samples repeat the
// same work.
func (b *bench) warmUp() error {
	art, _, err := b.runSession(b.wl.sessionConfig(sessionSeed(b.seed, -1), modeDefault, ""), nil)
	if err != nil {
		return err
	}
	return checkSession(art)
}

// chainCost is what persisting, loading and analysing one session cost.
type chainCost struct {
	persist, load float64
	views         viewCost
}

// persistAndAnalyse is the chain every iteration runs after its session:
// persist the artifacts to runDir, load them back, compute the paper's views
// and pass the correctness gate. Each step is one counted operation; ok is
// false when one failed, and the steps after it do not run.
func (b *bench) persistAndAnalyse(art *core.RunArtifacts, runDir, dataDir string) (c chainCost, ok bool) {
	if !b.op("persist", func() error {
		t := b.tr.start("core.RunArtifacts.WriteDir", 1)
		err := art.WriteDir(runDir)
		c.persist = t.stop()
		return err
	}) {
		return c, false
	}
	var loaded *core.RunArtifacts
	if !b.op("load", func() (err error) {
		loaded, c.load, err = b.load(runDir, dataDir)
		return err
	}) {
		return c, false
	}
	if !b.op("analysis", func() (err error) {
		c.views, err = b.views(loaded)
		return err
	}) {
		return c, false
	}
	return c, b.op("check", func() error { return b.check(art, loaded, runDir) })
}

// e2eIteration runs one timed session of the workload, persists it, analyses
// it, and checks it.
func (b *bench) e2eIteration(i int) {
	root, dataDir, runDir := b.iterDirs(i)
	defer b.cleanup(root)
	cfg := b.wl.sessionConfig(sessionSeed(b.seed, i), modeWorkload, dataDir)

	var art *core.RunArtifacts
	var cost sessionCost
	if !b.op("session", func() (err error) {
		art, cost, err = b.runSession(cfg, nil)
		return err
	}) {
		return
	}
	c, ok := b.persistAndAnalyse(art, runDir, dataDir)
	if !ok {
		return
	}
	b.add("session_s", cost.seconds)
	b.add("alloc_mb", cost.alloc/1e6)
	b.add("persist_s", c.persist)
	b.add("analysis_s", c.load+c.views.total())
}
