package mofka

// Bus is the minimal event-publishing surface the provenance collector
// needs. Two implementations exist: a standalone Broker (via Broker.Bus) and
// a sharded, replicated cluster (internal/mofka/cluster). Defining the
// interface here — in the leaf package both sides already import — lets
// internal/core target either deployment without an import cycle.
type Bus interface {
	// EnsureTopic opens the topic, creating it if absent.
	EnsureTopic(cfg TopicConfig) (BusTopic, error)
}

// BusTopic is one named event stream reachable through a Bus.
type BusTopic interface {
	Name() string
	PartitionCount() int
	// Producer creates a batching publisher for the topic. A cluster
	// topic binds it to quorum replication with idempotent retry.
	Producer(opts ProducerOptions) *Producer
}

// Bus adapts the broker to the Bus interface.
func (b *Broker) Bus() Bus { return brokerBus{b} }

type brokerBus struct{ b *Broker }

func (bb brokerBus) EnsureTopic(cfg TopicConfig) (BusTopic, error) {
	t, err := bb.b.OpenOrCreateTopic(cfg)
	if err != nil {
		return nil, err
	}
	return brokerBusTopic{t}, nil
}

type brokerBusTopic struct{ t *Topic }

func (bt brokerBusTopic) Name() string                            { return bt.t.Name() }
func (bt brokerBusTopic) PartitionCount() int                     { return bt.t.Partitions() }
func (bt brokerBusTopic) Producer(opts ProducerOptions) *Producer { return bt.t.NewProducer(opts) }

// Bus adapts the remote broker to the Bus interface: producers batch
// client-side and ship each sealed batch with one PushBatch call.
func (r *Remote) Bus() Bus { return remoteBus{r} }

type remoteBus struct{ r *Remote }

func (rb remoteBus) EnsureTopic(cfg TopicConfig) (BusTopic, error) {
	if err := rb.r.CreateTopic(cfg); err != nil {
		return nil, err
	}
	parts, _, err := rb.r.TopicInfo(cfg.Name)
	if err != nil {
		return nil, err
	}
	return remoteBusTopic{rb.r, cfg.Name, parts}, nil
}

type remoteBusTopic struct {
	r     *Remote
	name  string
	parts int
}

func (rt remoteBusTopic) Name() string        { return rt.name }
func (rt remoteBusTopic) PartitionCount() int { return rt.parts }
func (rt remoteBusTopic) Producer(opts ProducerOptions) *Producer {
	appendBatch := func(partition int, _ uint64, metas, datas [][]byte) error {
		return rt.r.PushBatch(rt.name, partition, metas, datas)
	}
	return NewProducer(rt.parts, appendBatch, nil, opts)
}
