// Package provenance defines the wire format of the WMS provenance stream:
// the Mofka topic names the collection plugins produce into, and the one
// generic decoder that turns event metadata back into records.
//
// Each record's struct is its own codec. The dask record types
// (dask.TaskMeta, dask.Transition, dask.TaskExecution, ...) and GraphEvent
// carry json tags naming exactly the wire keys: producers json.Marshal a
// record, consumers decode straight into it with Decode or Drain. Virtual
// times travel as float seconds (sim.Time's JSON methods).
//
// It is deliberately a leaf package (no dependency on internal/core or
// internal/perfrecup) so that every consumer of the stream — the in-run
// collector, the post-mortem PERFRECUP loaders, and the live monitoring
// subsystem (internal/live) — shares exactly one definition of the event
// schema.
package provenance

import (
	"encoding/json"
	"fmt"

	"taskprov/internal/mofka"
)

// Mofka topic names used by the provenance plugins.
const (
	TopicTaskMeta    = "task-meta"
	TopicTransitions = "task-transitions"
	TopicExecutions  = "task-executions"
	TopicTransfers   = "transfers"
	TopicWarnings    = "warnings"
	TopicHeartbeats  = "heartbeats"
	TopicSteals      = "steals"
	TopicGraphs      = "graph-events"

	// TopicProxy carries pass-by-reference data-plane operations: blob
	// publishes, reference resolutions (with demand-to-arrival latency),
	// misses on dangling references, frees, and crash reclaims.
	TopicProxy = "proxy-store"

	// TopicSpeculation carries hedged-execution and adaptive-retry decisions:
	// duplicate launches, first-completion wins, loser cancellations (with
	// wasted seconds), promotions, RPC retries, and retry-budget exhaustion.
	TopicSpeculation = "speculation"

	// TopicAnomalies carries the live monitor's online findings back into
	// the event space, so anomalies are themselves provenance (see
	// internal/live).
	TopicAnomalies = "anomalies"
)

// AllTopics lists every topic the collection plugins produce into. It does
// NOT include TopicAnomalies, which is produced by the live monitor, not the
// WMS plugins.
func AllTopics() []string {
	return []string{
		TopicTaskMeta, TopicTransitions, TopicExecutions, TopicTransfers,
		TopicWarnings, TopicHeartbeats, TopicSteals, TopicGraphs, TopicProxy,
		TopicSpeculation,
	}
}

// GraphEvent is one graph-level scheduler event on TopicGraphs, the only
// record without a dask struct. At stays float seconds: its consumers read
// the producer's float itself, not a sim.Time rounded from it.
type GraphEvent struct {
	GraphID int     `json:"graph_id"`
	Event   string  `json:"event"`
	At      float64 `json:"at"`
}

// GraphDone is the GraphEvent.Event of a graph completion.
const GraphDone = "done"

// Decode decodes one event's metadata into its record type T.
func Decode[T any](ev mofka.Event) (T, error) {
	var r T
	if err := json.Unmarshal(ev.Metadata, &r); err != nil {
		return r, fmt.Errorf("provenance: corrupt event %s[%d]/%d: %w", ev.Topic, ev.Partition, ev.ID, err)
	}
	return r, nil
}

// Drain pulls every event of a topic and decodes each into T.
func Drain[T any](b *mofka.Broker, topic string) ([]T, error) {
	t, err := b.OpenTopic(topic)
	if err != nil {
		return nil, err
	}
	c, err := t.NewConsumer(mofka.ConsumerOptions{NoData: true})
	if err != nil {
		return nil, err
	}
	evs, err := c.Drain()
	if err != nil {
		return nil, err
	}
	out := make([]T, len(evs))
	for i, ev := range evs {
		if out[i], err = Decode[T](ev); err != nil {
			return nil, err
		}
	}
	return out, nil
}
