package main

import (
	"crypto/sha256"
	"fmt"
	"maps"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup"
	"taskprov/internal/perfrecup/frame"
	"taskprov/internal/provenance"
)

// gateViews are the CSV views whose digests must agree between the
// in-memory artifacts and every persisted form of them.
var gateViews = []struct {
	name  string
	build func(*core.RunArtifacts) (*frame.Frame, error)
}{
	{"executions", perfrecup.ExecutionsView},
	{"transfers", perfrecup.TransfersView},
	{"warnings", perfrecup.WarningsView},
	{"dxt", perfrecup.DXTView},
	{"task-meta", perfrecup.TaskMetaView},
}

// viewDigests returns the SHA-256 of each gate view's CSV export.
func viewDigests(art *core.RunArtifacts) (map[string][sha256.Size]byte, error) {
	out := make(map[string][sha256.Size]byte, len(gateViews))
	for _, v := range gateViews {
		f, err := v.build(art)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", v.name, err)
		}
		h := sha256.New()
		if err := f.WriteCSV(h); err != nil {
			return nil, fmt.Errorf("view %s: %w", v.name, err)
		}
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		out[v.name] = sum
	}
	return out, nil
}

// sameViews reports the first gate view of art whose digest differs from
// want; what names the form art was read back from.
func sameViews(want map[string][sha256.Size]byte, art *core.RunArtifacts, what string) error {
	got, err := viewDigests(art)
	if err != nil {
		return err
	}
	for _, v := range gateViews {
		if want[v.name] != got[v.name] {
			return fmt.Errorf("view %s differs between the in-memory artifacts and %s", v.name, what)
		}
	}
	return nil
}

// checkDataDir is the gate on a durable session that is not persisted: its
// checks pass, and its event log read back through perfrecup.LoadEventLog
// gives the same gate views as its in-memory artifacts.
func checkDataDir(art *core.RunArtifacts, dataDir string) error {
	if err := checkSession(art); err != nil {
		return err
	}
	want, err := viewDigests(art)
	if err != nil {
		return err
	}
	loaded, err := perfrecup.LoadEventLog(dataDir)
	if err != nil {
		return err
	}
	return sameViews(want, loaded, "perfrecup.LoadEventLog")
}

// sameSimulation is the gate on a session run with collection disabled: it
// must leave the same simulated files as the instrumented session of the same
// seed, since collection may not change what the workflow does.
func sameSimulation(bare, instrumented *core.RunArtifacts) error {
	if len(bare.Files) == 0 {
		return fmt.Errorf("the bare session left no simulated files")
	}
	if !maps.Equal(bare.Files, instrumented.Files) {
		return fmt.Errorf("the bare session's simulated files differ from the instrumented session's")
	}
	return nil
}

// countEvents counts the events on every collected topic.
func countEvents(art *core.RunArtifacts) (int64, error) {
	var n int64
	for _, topic := range provenance.AllTopics() {
		t, err := art.Broker.OpenTopic(topic)
		if err != nil {
			return 0, err
		}
		n += int64(t.Events())
	}
	return n, nil
}

// checkSession is the gate on the artifacts a session returned: the broker
// holds exactly the events the collector counted, and the run carries its
// critical-path digest.
func checkSession(art *core.RunArtifacts) error {
	if art.CritPath == nil {
		return fmt.Errorf("RunArtifacts.CritPath is nil")
	}
	n, err := countEvents(art)
	if err != nil {
		return err
	}
	if want := art.Collector.TotalEvents(); n != want {
		return fmt.Errorf("broker holds %d events, collector counted %d", n, want)
	}
	return nil
}
