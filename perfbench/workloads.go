package main

import (
	"fmt"

	"taskprov/internal/core"
	"taskprov/internal/workloads"
)

// workload is one benchmark input: a paper workflow under one
// instrumentation mode. Why each was chosen is in README.md.
type workload struct {
	name     string
	workflow string // internal/workloads generator
	// durable runs put the broker's event log in a data dir on the
	// checkout's disk and analyse it through perfrecup.LoadEventLog.
	durable bool
	// liveCluster runs add the live monitor and a 3-broker, RF2 cluster.
	liveCluster bool
}

var benchWorkloads = []workload{
	{name: "xgboost-mem", workflow: "xgboost"},
	{name: "imageproc-durable", workflow: "imageprocessing", durable: true},
	{name: "resnet-live-cluster", workflow: "resnet152", liveCluster: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sessionSeed derives the i-th session's simulation seed from the benchmark
// seed (splitmix64), so one --seed fixes every session of a run.
func sessionSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) & 0xFFFFFFFF
}

// mode selects how much instrumentation a session carries.
type mode int

const (
	modeBare     mode = iota // DisableCollection: the simulation alone
	modeDefault              // the workflow's default in-memory instrumentation
	modeWorkload             // the workload's own instrumentation
)

// sessionConfig builds the session configuration for one seed and mode;
// dataDir is used only by durable workloads in modeWorkload.
func (w workload) sessionConfig(seed uint64, m mode, dataDir string) core.SessionConfig {
	cfg := workloads.DefaultSession(w.workflow, fmt.Sprintf("%s-%08x", w.name, seed), seed)
	switch m {
	case modeBare:
		cfg.DisableCollection = true
	case modeWorkload:
		if w.durable {
			cfg.MofkaDataDir = dataDir
			cfg.MofkaSyncPolicy = "batch"
		}
		if w.liveCluster {
			cfg.LiveMonitor = true
			cfg.ClusterBrokers = 3
			cfg.ClusterReplication = 2
		}
	}
	return cfg
}
