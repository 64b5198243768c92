package resume

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
	"taskprov/internal/provenance"
	"taskprov/internal/sim"
)

func TestLoadCheckpointMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	cp, err := LoadCheckpoint(dir)
	if cp != nil || err != nil {
		t.Fatalf("missing checkpoint = %+v, %v; want nil, nil", cp, err)
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), []byte(`{"attempt":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if cp, err := LoadCheckpoint(dir); err == nil {
		t.Fatalf("corrupt checkpoint loaded: %+v", cp)
	}
}

// tempFiles lists the atomic writer's temp files left in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteCheckpointFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	prev := NewCheckpoint(1)
	prev.AtSeconds = 12.5
	prev.Tasks["load-1"] = FrontierTask{GraphID: 1, Size: 64, StopSeconds: 12}
	if err := WriteCheckpoint(dir, prev); err != nil {
		t.Fatal(err)
	}

	// A checkpoint that cannot be encoded fails before touching the file.
	bad := NewCheckpoint(2)
	bad.AtSeconds = math.NaN()
	if err := WriteCheckpoint(dir, bad); err == nil {
		t.Fatal("unencodable checkpoint written")
	}
	got, err := LoadCheckpoint(dir)
	if err != nil || !reflect.DeepEqual(got, prev) {
		t.Fatalf("after failed write: %+v, %v; want %+v", got, err, prev)
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}

	// A write whose install step fails (the target is a non-empty
	// directory) leaves the target and no temp file behind.
	blocked := t.TempDir()
	target := filepath.Join(blocked, CheckpointFile)
	if err := os.MkdirAll(filepath.Join(target, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(blocked, prev); err == nil {
		t.Fatal("checkpoint installed over a directory")
	}
	if st, err := os.Stat(filepath.Join(target, "keep")); err != nil || !st.IsDir() {
		t.Fatalf("install target damaged: %v", err)
	}
	if left := tempFiles(t, blocked); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// writeDataDir builds a durable event log holding the given records, each
// pushed JSON-encoded as the collector does.
func writeDataDir(t *testing.T, dir string, events map[string][]any) {
	t.Helper()
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir, WAL: wal.Options{Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	for topic, recs := range events {
		tp, err := b.CreateTopic(mofka.TopicConfig{Name: topic, Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := tp.NewProducer(mofka.ProducerOptions{})
		for _, rec := range recs {
			meta, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.PushRaw(meta, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReconstructFencesCompletedRun: a crashed attempt resumes as the next
// attempt from its typed records; once the lineage's last attempt is
// completed, the same dir refuses with ErrCompleted.
func TestReconstructFencesCompletedRun(t *testing.T) {
	dir := t.TempDir()
	writeDataDir(t, dir, map[string][]any{
		provenance.TopicExecutions: {dask.TaskExecution{
			Key: "load-1", Worker: "tcp://n0:40000", Start: sim.Seconds(1), Stop: sim.Seconds(2.25), OutputSize: 64, GraphID: 1,
		}},
		provenance.TopicGraphs:      {provenance.GraphEvent{GraphID: 1, Event: provenance.GraphDone, At: 2.5}},
		provenance.TopicTransitions: {dask.Transition{Key: "load-1", From: "processing", To: "memory", At: sim.Seconds(3.75)}},
		provenance.TopicProxy:       nil,
	})
	if _, err := AppendAttempt(dir, Attempt{Attempt: 1}); err != nil {
		t.Fatal(err)
	}

	st, err := Reconstruct(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempt != 2 || st.ResumedFrom != 1 {
		t.Fatalf("attempt = %d resumed from %d", st.Attempt, st.ResumedFrom)
	}
	if m, ok := st.Memos["load-1"]; !ok || m.Size != 64 || st.ExecCounts["load-1"] != 1 {
		t.Fatalf("memos = %+v, exec counts = %v", st.Memos, st.ExecCounts)
	}
	if !reflect.DeepEqual(st.DoneGraphs, []int{1}) {
		t.Fatalf("done graphs = %v", st.DoneGraphs)
	}
	// The clock frontier is the latest stamp on any topic (the transition
	// at 3.75 s), rounded up, plus one second.
	if st.ResumeBase != sim.Seconds(5) {
		t.Fatalf("resume base = %v, want 5s", st.ResumeBase)
	}

	if _, err := AppendAttempt(dir, Attempt{Attempt: 2, ResumedFrom: 1, StartSeconds: 5}); err != nil {
		t.Fatal(err)
	}
	if err := CompleteAttempt(dir, 2, 9); err != nil {
		t.Fatal(err)
	}
	if st, err := Reconstruct(dir); !errors.Is(err, ErrCompleted) {
		t.Fatalf("completed dir reconstructed: %+v, %v", st, err)
	}
}
