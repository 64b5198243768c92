package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"

	"taskprov/internal/mofka"
)

// ClusterTopic is a handle on a cluster-wide topic — the counterpart of
// *mofka.Topic for sharded deployments. It satisfies mofka.BusTopic.
type ClusterTopic struct {
	c     *Cluster
	name  string
	parts int
}

// Name returns the topic name.
func (t *ClusterTopic) Name() string { return t.name }

// PartitionCount returns the topic's partition count.
func (t *ClusterTopic) PartitionCount() int { return t.parts }

// producerSeq is the global producer-id source; ids only need to be unique
// within a process, and a plain counter keeps them deterministic.
var producerSeq atomic.Uint64

// Producer creates a mofka.Producer whose batches replicate with quorum
// acknowledgement and sequence-numbered idempotent retry. A batch that
// fails (no quorum, leader crash mid-replication) stays queued in the
// producer and is retried with the same sequence number; replicas that
// already hold it acknowledge without re-appending, so a retry across a
// leader change neither loses nor duplicates events.
func (t *ClusterTopic) Producer(opts mofka.ProducerOptions) *mofka.Producer {
	t.c.mu.Lock()
	var valid mofka.Validator
	if ts, ok := t.c.topics[t.name]; ok {
		valid = ts.cfg.Validator
	}
	t.c.mu.Unlock()
	a := &appender{
		c:      t.c,
		topic:  t.name,
		id:     fmt.Sprintf("producer-%d", producerSeq.Add(1)),
		epochs: make([]uint64, t.parts),
	}
	return mofka.NewProducer(t.parts, a.append, valid, opts)
}

// appender is one producer's route into the cluster: its idempotence id
// and its per-partition cached fencing epoch (0 = unknown). The producer
// serializes calls, so it needs no lock.
type appender struct {
	c      *Cluster
	topic  string
	id     string
	epochs []uint64
}

// append replicates one batch. ErrFenced means the cached route is stale:
// refresh the epoch (the current one rides on the error return) and retry
// at once, so a fence never uses up one of the producer's backoff retries.
// Any other failure (no quorum, leader append error) goes back to the
// producer, which backs off and retries with the same sequence number.
func (a *appender) append(part int, seq uint64, metas, datas [][]byte) error {
	for {
		cur, err := a.c.Append(a.topic, part, a.id, seq, a.epochs[part], metas, datas)
		a.epochs[part] = cur
		if !errors.Is(err, ErrFenced) {
			return err
		}
	}
}

// Bus adapts the cluster to the mofka.Bus interface, so internal/core can
// collect provenance into a cluster exactly as it does into a single
// broker.
func (c *Cluster) Bus() mofka.Bus { return clusterBus{c} }

type clusterBus struct{ c *Cluster }

func (cb clusterBus) EnsureTopic(cfg mofka.TopicConfig) (mofka.BusTopic, error) {
	return cb.c.EnsureTopic(cfg)
}
