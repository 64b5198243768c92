package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"

	"taskprov/internal/core"
	"taskprov/internal/live"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/mofka/wal"
	"taskprov/internal/perfrecup"
	"taskprov/internal/provenance"
	"taskprov/internal/whatif"
)

// topicEvents is one topic's recorded events, in partition order.
type topicEvents struct {
	name       string
	partitions int
	events     []mofka.Event
}

// recordedEvents reads back every event the collector published.
func recordedEvents(b *mofka.Broker) ([]topicEvents, int, error) {
	var out []topicEvents
	total := 0
	for _, name := range provenance.AllTopics() {
		t, err := b.OpenTopic(name)
		if err != nil {
			return nil, 0, err
		}
		te := topicEvents{name: name, partitions: t.Partitions()}
		for i := 0; i < t.Partitions(); i++ {
			p, err := t.Partition(i)
			if err != nil {
				return nil, 0, err
			}
			evs, err := p.ReadFrom(0, int(p.Length()), false)
			if err != nil {
				return nil, 0, err
			}
			te.events = append(te.events, evs...)
		}
		total += len(te.events)
		out = append(out, te)
	}
	return out, total, nil
}

// repush publishes recorded events through one fresh producer per topic
// (batch size 64, as sessions use) and flushes and closes the producers.
func repush(bus mofka.Bus, recorded []topicEvents) error {
	for _, te := range recorded {
		t, err := bus.EnsureTopic(mofka.TopicConfig{Name: te.name, Partitions: te.partitions})
		if err != nil {
			return err
		}
		p := t.Producer(mofka.ProducerOptions{BatchSize: 64})
		for _, ev := range te.events {
			if err := p.PushRaw(ev.Metadata, nil); err != nil {
				_ = p.Close()
				return err
			}
		}
		if err := p.Flush(); err != nil {
			_ = p.Close()
			return err
		}
		if err := p.Close(); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return float64(n), err
}

// gcSample reads the runtime's cumulative GC CPU seconds and cycle count.
func gcSample() (cpuSeconds, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		cpuSeconds = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[1].Value.Uint64())
	}
	return cpuSeconds, cycles
}

// profileHz is the CPU profile's sampling rate in the traced session.
const profileHz = 1000

// traceIteration is one iteration of the traced run. It runs the same seed
// four ways — bare, default instrumentation, the workload's instrumentation
// untraced, and the workload's instrumentation traced (spans plus the CPU
// profiler) — and then times each layer's public calls on the traced
// session's output. Every session passes a correctness gate.
func (b *bench) traceIteration(i int, profile *[]cpuSample) {
	root, dataDir, runDir := b.iterDirs(i)
	defer b.cleanup(root)
	seed := sessionSeed(b.seed, i)
	b.tr.setSession(i)

	var bareArt, defArt *core.RunArtifacts
	var bare, def, plain, traced sessionCost
	if !b.op("session.bare", func() (err error) {
		bareArt, bare, err = b.runSession(b.wl.sessionConfig(seed, modeBare, ""), nil)
		return err
	}) {
		return
	}
	if !b.op("session.default", func() (err error) {
		defArt, def, err = b.runSession(b.wl.sessionConfig(seed, modeDefault, ""), nil)
		return err
	}) {
		return
	}
	b.op("check.default", func() error { return checkSession(defArt) })
	b.op("check.bare", func() error { return sameSimulation(bareArt, defArt) })
	defEvents := float64(defArt.Collector.TotalEvents())
	// Drop both heaps, so the next sessions start from the same collected
	// heap as an end-to-end session does.
	bareArt, defArt = nil, nil

	if !b.op("session.workload", func() error {
		plainDir := filepath.Join(root, "plain")
		art, c, err := b.runSession(b.wl.sessionConfig(seed, modeWorkload, plainDir), nil)
		if err != nil {
			return err
		}
		plain = c
		if b.wl.durable {
			return checkDataDir(art, plainDir)
		}
		return checkSession(art)
	}) {
		return
	}

	var art *core.RunArtifacts
	var gcCPU, gcCycles float64
	if !b.op("session.traced", func() error {
		var buf bytes.Buffer
		// 100 Hz gives too few samples from one session for per-package
		// shares. Setting the rate first makes StartCPUProfile keep it (and
		// print a warning that it cannot set its own).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		cpu0, cyc0 := gcSample()
		var err error
		art, traced, err = b.runSession(b.wl.sessionConfig(seed, modeWorkload, dataDir), b.tr)
		cpu1, cyc1 := gcSample()
		pprof.StopCPUProfile()
		gcCPU, gcCycles = cpu1-cpu0, cyc1-cyc0
		if err != nil {
			return err
		}
		s, err := parseCPUProfile(&buf)
		*profile = append(*profile, s...)
		return err
	}) {
		return
	}

	events := float64(art.Collector.TotalEvents())
	b.add("sim.bare_session_s", bare.seconds)
	b.add("sim.bare_alloc_mb", bare.alloc/1e6)
	b.add("core.events", events)
	b.add("core.collect_s", def.seconds-bare.seconds)
	b.add("core.collect_us_per_event", 1e6*(def.seconds-bare.seconds)/defEvents)
	b.add("core.collect_allocs_per_event", (def.mallocs-bare.mallocs)/defEvents)
	b.add("core.collect_bytes_per_event", (def.alloc-bare.alloc)/defEvents)
	b.add("core.mode_s", plain.seconds-def.seconds)
	b.add("runtime.gc_cpu_s", gcCPU)
	b.add("runtime.gc_cycles", gcCycles)
	b.add("trace.session_s", traced.seconds)
	b.add("trace.overhead_s", traced.seconds-plain.seconds)

	b.op("check.tasks", func() error {
		tasks, err := art.DistinctTasks()
		b.add("dask.tasks", float64(tasks))
		return err
	})
	c, ok := b.persistAndAnalyse(art, runDir, dataDir)
	if !ok {
		return
	}
	b.add("perfrecup.load_s", c.load)
	b.add("perfrecup.phases_s", c.views.phases)
	b.add("perfrecup.views_s", c.views.views)
	b.add("perfrecup.attribute_io_s", c.views.attributeIO)
	b.add("perfrecup.critpath_s", c.views.critPath)
	b.op("persist.size", func() error {
		n, err := dirBytes(runDir)
		b.add("core.write_dir_bytes", n)
		return err
	})
	b.op("persist.darshan", func() error { return b.darshanLayer(art, filepath.Join(root, "darshan-only")) })
	b.op("analysis.whatif", func() error { return b.whatifLayer(art) })
	b.op("analysis.live", func() error {
		t := b.tr.start("perfrecup.LiveReplay", 1)
		_, err := perfrecup.LiveReplay(art, live.AggregatorOptions{})
		b.add("live.replay_s", t.stop())
		return err
	})
	b.op("layers.mofka", func() error { return b.mofkaLayers(art, root, dataDir) })
}

// darshanLayer times writing the Darshan logs on their own.
func (b *bench) darshanLayer(art *core.RunArtifacts, dir string) error {
	var segs int64
	for _, l := range art.DarshanLogs {
		segs += l.TotalDXTSegments()
	}
	b.add("darshan.dxt_segments", float64(segs))
	t := b.tr.start("core.RunArtifacts.WriteDarshanLogs", 1)
	err := art.WriteDarshanLogs(dir)
	b.add("darshan.write_s", t.stop())
	if err != nil {
		return err
	}
	n, err := dirBytes(dir)
	b.add("darshan.bytes", n)
	return err
}

// whatifLayer times the model extraction every Execute runs, then the
// critical-path walk and the baseline replay on the extracted model.
func (b *bench) whatifLayer(art *core.RunArtifacts) error {
	t := b.tr.start("whatif.Extract", 1)
	model, err := whatif.Extract(art.WhatIfInput())
	b.add("whatif.extract_s", t.stop())
	if err != nil {
		return err
	}
	t = b.tr.start("whatif.Model.CriticalPath", 1)
	cp := model.CriticalPath()
	b.add("whatif.critpath_s", t.stop())
	if cp == nil {
		return fmt.Errorf("whatif: nil critical path")
	}
	t = b.tr.start("whatif.Model.Replay", 1)
	_, err = model.Replay(whatif.Scenario{})
	b.add("whatif.replay_s", t.stop())
	return err
}

// mofkaLayers times the event codec and each broker deployment's append
// path over the session's recorded events.
func (b *bench) mofkaLayers(art *core.RunArtifacts, root, dataDir string) error {
	recorded, n, err := recordedEvents(art.Broker)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no recorded events")
	}
	perEvent := func(secs float64) float64 { return 1e6 * secs / float64(n) }

	decoded := make([]mofka.Metadata, 0, n)
	t := b.tr.start("mofka.DecodeMetadata", n)
	for _, te := range recorded {
		for _, ev := range te.events {
			m, err := mofka.DecodeMetadata(ev.Metadata)
			if err != nil {
				t.stop()
				return err
			}
			decoded = append(decoded, m)
		}
	}
	b.add("mofka.decode_us_per_event", perEvent(t.stop()))

	t = b.tr.start("mofka.Metadata.Encode", n)
	for _, m := range decoded {
		_ = m.Encode()
	}
	b.add("mofka.encode_us_per_event", perEvent(t.stop()))

	t = b.tr.start("mofka.Producer.PushRaw", n)
	err = repush(mofka.NewStandaloneBroker().Bus(), recorded)
	b.add("mofka.append_us_per_event", perEvent(t.stop()))
	if err != nil {
		return err
	}

	// The WAL: the same events into a durable broker on the same disk with
	// the sessions' fsync policy, flushed and closed.
	walDir := filepath.Join(root, "wal")
	t = b.tr.start("wal.append", n)
	durable, err := mofka.NewDurableBroker(mofka.Options{DataDir: walDir, WAL: wal.Options{Sync: wal.SyncBatch}})
	if err == nil {
		err = repush(durable.Bus(), recorded)
		if cerr := durable.Close(); err == nil {
			err = cerr
		}
	}
	b.add("wal.append_us_per_event", perEvent(t.stop()))
	if err != nil {
		return err
	}
	// Durable workloads open their own session's data dir; the others open
	// the log just written.
	openDir := walDir
	if b.wl.durable {
		openDir = dataDir
	}
	t = b.tr.start("mofka.OpenPostMortem", 1)
	pm, err := mofka.OpenPostMortem(openDir)
	b.add("wal.open_s", t.stop())
	if err != nil {
		return err
	}
	if err := pm.Close(); err != nil {
		return err
	}
	size, err := dirBytes(openDir)
	if err != nil {
		return err
	}
	b.add("wal.bytes", size)

	// The cluster: a 3-broker, RF2 in-memory deployment.
	t = b.tr.start("cluster.append", n)
	clu, err := cluster.New(cluster.Config{Brokers: 3, ReplicationFactor: 2})
	if err == nil {
		err = repush(clu.Bus(), recorded)
	}
	b.add("cluster.append_us_per_event", perEvent(t.stop()))
	if err != nil {
		if clu != nil {
			_ = clu.Close()
		}
		return err
	}
	t = b.tr.start("cluster.Cluster.ReadView", 1)
	_, err = clu.ReadView()
	b.add("cluster.read_view_s", t.stop())
	if cerr := clu.Close(); err == nil {
		err = cerr
	}
	return err
}
