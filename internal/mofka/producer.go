package mofka

import (
	"fmt"
	"sync"
	"time"
)

// Producer batching bounds that no deployment tunes.
const (
	// maxBatchBytes seals a partition's pending batch once its payload bytes
	// reach this size, whatever the event count.
	maxBatchBytes = 4 << 20
	// maxPendingBatches bounds the per-partition backlog of sealed but
	// unshipped batches accumulated while appends fail. Beyond the bound the
	// oldest batches are dropped (counted by Dropped), trading provenance
	// completeness for bounded memory — degraded, not wedged.
	maxPendingBatches = 64
)

// ProducerOptions tunes batching and resilience. Mofka's real producer
// batches events and ships them with background threads; here batches ship
// on size triggers, Flush, and Close only — the deterministic mode
// simulations use.
type ProducerOptions struct {
	// BatchSize flushes a partition's pending batch when it reaches this
	// many events. Default 128.
	BatchSize int
	// FlushRetries is how many times a failing batch append is retried
	// in-line (with exponential backoff starting at RetryBackoff) before the
	// producer gives up for now, keeps the batch buffered, and reports
	// degraded mode. Default 3.
	FlushRetries int
	// RetryBackoff is the initial backoff between in-line retries,
	// doubling each attempt. Default 5ms.
	RetryBackoff time.Duration
	// OnDegraded fires once when the producer starts buffering because
	// appends fail persistently; OnRecovered fires once when the backlog
	// later drains completely. Both are invoked without internal locks held,
	// so callbacks may push to other topics.
	OnDegraded  func(err error)
	OnRecovered func()
}

func (o *ProducerOptions) setDefaults() {
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.FlushRetries <= 0 {
		o.FlushRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
}

// AppendFunc ships one sealed batch to a partition: the hook that binds a
// Producer to a deployment. seq numbers each partition's batches from 1 in
// seal order, and a retried batch carries the same seq, so an idempotent
// backend (the replicated cluster) can acknowledge a batch it already holds
// without re-appending it. The producer calls it from one goroutine at a
// time.
type AppendFunc func(partition int, seq uint64, metas, datas [][]byte) error

// Producer pushes events into a topic with batching, round-robin placement,
// and degraded-mode buffering: a batch whose append keeps failing stays
// queued (bounded per partition) and ships on a later flush. Safe for
// concurrent use.
type Producer struct {
	appendBatch AppendFunc
	validate    Validator
	opts        ProducerOptions

	mu       sync.Mutex
	open     []batch   // per-partition batch accepting new events
	queues   [][]batch // per-partition FIFO of sealed, unshipped batches
	sealed   []uint64  // per-partition count of sealed batches (the last seq)
	rr       int
	closed   bool
	degraded bool
	dropped  uint64

	// shipMu serializes shipping so a partition's batches land in seal
	// (and therefore sequence) order even under concurrent pushers.
	shipMu sync.Mutex
}

type batch struct {
	metas [][]byte
	datas [][]byte
	bytes int64
	seq   uint64
}

// NewProducer creates a producer over partitions partitions that ships
// through appendBatch. validate, when non-nil, vets each event's metadata
// at push time.
func NewProducer(partitions int, appendBatch AppendFunc, validate Validator, opts ProducerOptions) *Producer {
	opts.setDefaults()
	return &Producer{
		appendBatch: appendBatch,
		validate:    validate,
		opts:        opts,
		open:        make([]batch, partitions),
		queues:      make([][]batch, partitions),
		sealed:      make([]uint64, partitions),
	}
}

// NewProducer creates a producer for the topic.
func (t *Topic) NewProducer(opts ProducerOptions) *Producer {
	appendBatch := func(partition int, _ uint64, metas, datas [][]byte) error {
		return t.partitions[partition].appendBatch(metas, datas)
	}
	return NewProducer(len(t.partitions), appendBatch, t.cfg.Validator, opts)
}

// Push enqueues one event. The metadata and data slices are copied. The
// event becomes visible to consumers after its batch flushes (by size
// trigger, Flush, or Close).
func (p *Producer) Push(metadata Metadata, data []byte) error {
	return p.PushRaw(metadata.Encode(), data)
}

// PushRaw enqueues one event with pre-encoded JSON metadata.
func (p *Producer) PushRaw(metadata, data []byte) error {
	if p.validate != nil {
		if err := p.validate(metadata); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidEvent, err)
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	idx := p.rr
	p.rr = (p.rr + 1) % len(p.open)
	b := &p.open[idx]
	b.metas = append(b.metas, append([]byte(nil), metadata...))
	b.datas = append(b.datas, append([]byte(nil), data...))
	b.bytes += int64(len(data))
	needFlush := len(b.metas) >= p.opts.BatchSize || b.bytes >= maxBatchBytes
	if needFlush {
		p.sealLocked(idx)
	}
	p.mu.Unlock()
	if needFlush {
		return p.ship()
	}
	return nil
}

// sealLocked moves partition idx's open batch onto its shipping queue,
// assigning the batch its per-partition sequence number. Callers hold p.mu.
func (p *Producer) sealLocked(idx int) {
	if len(p.open[idx].metas) == 0 {
		return
	}
	p.sealed[idx]++
	p.open[idx].seq = p.sealed[idx]
	p.queues[idx] = append(p.queues[idx], p.open[idx])
	p.open[idx] = batch{}
}

// ship drains every partition's sealed-batch queue, retrying failures with
// backoff. Batches that still cannot be appended stay queued (bounded by
// maxPendingBatches) for the next flush — a broker outage degrades the
// producer instead of losing whole batches. Returns the first append error.
func (p *Producer) ship() error {
	p.shipMu.Lock()
	var firstErr error
	for idx := range p.queues {
		if err := p.drainPartition(idx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.mu.Lock()
	backlog := 0
	for i := range p.queues {
		backlog += len(p.queues[i])
	}
	notifyDegraded := firstErr != nil && !p.degraded
	notifyRecovered := firstErr == nil && backlog == 0 && p.degraded
	if notifyDegraded {
		p.degraded = true
	}
	if notifyRecovered {
		p.degraded = false
	}
	p.mu.Unlock()
	p.shipMu.Unlock()
	if notifyDegraded && p.opts.OnDegraded != nil {
		p.opts.OnDegraded(firstErr)
	}
	if notifyRecovered && p.opts.OnRecovered != nil {
		p.opts.OnRecovered()
	}
	return firstErr
}

func (p *Producer) drainPartition(idx int) error {
	for {
		p.mu.Lock()
		if len(p.queues[idx]) == 0 {
			p.mu.Unlock()
			return nil
		}
		b := p.queues[idx][0]
		p.mu.Unlock()
		if err := p.appendWithRetry(idx, b); err != nil {
			p.enforceBound(idx)
			return err
		}
		p.mu.Lock()
		p.queues[idx] = p.queues[idx][1:]
		p.mu.Unlock()
	}
}

func (p *Producer) appendWithRetry(idx int, b batch) error {
	backoff := p.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		err = p.appendBatch(idx, b.seq, b.metas, b.datas)
		if err == nil || attempt >= p.opts.FlushRetries {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// enforceBound drops partition idx's oldest queued batches past
// maxPendingBatches, counting the dropped events.
func (p *Producer) enforceBound(idx int) {
	p.mu.Lock()
	over := len(p.queues[idx]) - maxPendingBatches
	for i := 0; i < over; i++ {
		p.dropped += uint64(len(p.queues[idx][i].metas))
	}
	if over > 0 {
		p.queues[idx] = append([]batch(nil), p.queues[idx][over:]...)
	}
	p.mu.Unlock()
}

// Flush seals and ships every pending batch. On error the unshipped batches
// remain queued for the next attempt; the first append error is returned.
func (p *Producer) Flush() error {
	p.mu.Lock()
	for i := range p.open {
		p.sealLocked(i)
	}
	p.mu.Unlock()
	return p.ship()
}

// Close flushes pending events. Further pushes fail with ErrClosed. If the
// final flush fails, its first error is returned and any still-unshipped
// batches are abandoned with the producer.
func (p *Producer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	return p.Flush()
}

// Degraded reports whether the producer is currently buffering because
// appends fail.
func (p *Producer) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded
}

// Backlog reports the number of sealed batches still awaiting shipment.
func (p *Producer) Backlog() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.queues {
		n += len(p.queues[i])
	}
	return n
}

// Dropped reports events discarded because the degraded-mode backlog
// exceeded maxPendingBatches.
func (p *Producer) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}
