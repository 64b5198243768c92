package core

import (
	"encoding/json"
	"fmt"

	"taskprov/internal/mofka"
	"taskprov/internal/posixio"
	"taskprov/internal/sim"
)

// TopicIOTrace is the Mofka topic the online I/O tracer publishes to.
const TopicIOTrace = "io-trace"

// OnlineIOTracer implements the paper's future-work plan to "shift to
// capturing Darshan records and pushing them to Mofka at runtime to have a
// fully online system": it wraps a per-worker posixio.Tracer (normally the
// Darshan runtime) and additionally streams every POSIX operation as a
// Mofka event the moment it completes, so in-situ consumers see I/O
// activity without waiting for the post-mortem log.
type OnlineIOTracer struct {
	inner    posixio.Tracer
	producer *mofka.Producer
	rank     int
	hostname string
}

// NewOnlineIOTracer wraps inner (which may be nil for stream-only tracing)
// with a live Mofka feed on broker's TopicIOTrace topic.
func NewOnlineIOTracer(broker *mofka.Broker, opts mofka.ProducerOptions, inner posixio.Tracer, rank int, hostname string) (*OnlineIOTracer, error) {
	t, err := broker.OpenOrCreateTopic(mofka.TopicConfig{Name: TopicIOTrace, Partitions: 2})
	if err != nil {
		return nil, fmt.Errorf("core: online tracer topic: %w", err)
	}
	return &OnlineIOTracer{
		inner:    inner,
		producer: t.NewProducer(opts),
		rank:     rank,
		hostname: hostname,
	}, nil
}

var _ posixio.Tracer = (*OnlineIOTracer)(nil)

// ioTraceEvent is one POSIX operation on TopicIOTrace.
type ioTraceEvent struct {
	Op       string   `json:"op"`
	Rank     int      `json:"rank"`
	Hostname string   `json:"hostname"`
	Path     string   `json:"path"`
	ThreadID uint64   `json:"thread_id"`
	Offset   int64    `json:"offset"`
	Bytes    int64    `json:"bytes"`
	Start    sim.Time `json:"start"`
	End      sim.Time `json:"end"`
}

func (o *OnlineIOTracer) push(op string, rec posixio.OpRecord) {
	meta, err := json.Marshal(ioTraceEvent{
		Op: op, Rank: o.rank, Hostname: o.hostname,
		Path: rec.Path, ThreadID: rec.TID, Offset: rec.Offset, Bytes: rec.Bytes,
		Start: rec.Start, End: rec.End,
	})
	if err == nil {
		err = o.producer.PushRaw(meta, nil)
	}
	if err != nil {
		panic(fmt.Sprintf("core: online io trace push: %v", err))
	}
}

// OpenEvent implements posixio.Tracer.
func (o *OnlineIOTracer) OpenEvent(rec posixio.OpRecord, created bool) {
	if o.inner != nil {
		o.inner.OpenEvent(rec, created)
	}
	op := "open"
	if created {
		op = "create"
	}
	o.push(op, rec)
}

// ReadEvent implements posixio.Tracer.
func (o *OnlineIOTracer) ReadEvent(rec posixio.OpRecord) {
	if o.inner != nil {
		o.inner.ReadEvent(rec)
	}
	o.push("read", rec)
}

// WriteEvent implements posixio.Tracer.
func (o *OnlineIOTracer) WriteEvent(rec posixio.OpRecord) {
	if o.inner != nil {
		o.inner.WriteEvent(rec)
	}
	o.push("write", rec)
}

// CloseEvent implements posixio.Tracer.
func (o *OnlineIOTracer) CloseEvent(rec posixio.OpRecord) {
	if o.inner != nil {
		o.inner.CloseEvent(rec)
	}
	o.push("close", rec)
}

// Flush ships pending trace batches.
func (o *OnlineIOTracer) Flush() error { return o.producer.Flush() }
