package mofka

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestCloseShipsLastBatch is the regression test for the final partial
// batch: events pushed after the last size-triggered flush must be shipped
// by Close, not abandoned with the producer.
func TestCloseShipsLastBatch(t *testing.T) {
	_, tp := newTopic(t, "t", 1)
	p := tp.NewProducer(ProducerOptions{BatchSize: 128})
	for i := 0; i < 3; i++ {
		if err := p.Push(Metadata{"i": i}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := tp.Events(); got != 0 {
		t.Fatalf("events visible before flush: %d", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tp.Events(); got != 3 {
		t.Fatalf("events after Close = %d, want 3", got)
	}
	if err := p.Push(Metadata{"i": 9}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after Close err = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFlushRetainsBatchOnFault: a failing append must keep the sealed batch
// buffered (degraded mode), and a later flush after the fault clears must
// deliver every event exactly once.
func TestFlushRetainsBatchOnFault(t *testing.T) {
	b, tp := newTopic(t, "t", 1)
	var degraded, recovered int
	p := tp.NewProducer(ProducerOptions{
		BatchSize:    128,
		FlushRetries: 1,
		RetryBackoff: time.Millisecond,
		OnDegraded:   func(error) { degraded++ },
		OnRecovered:  func() { recovered++ },
	})
	for i := 0; i < 5; i++ {
		if err := p.Push(Metadata{"i": i}, []byte(fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	bang := errors.New("disk on fire")
	b.SetAppendFault(func(string, int) error { return bang })

	if err := p.Flush(); !errors.Is(err, bang) {
		t.Fatalf("flush under fault err = %v, want %v", err, bang)
	}
	if !p.Degraded() || p.Backlog() != 1 {
		t.Fatalf("degraded=%v backlog=%d, want true/1", p.Degraded(), p.Backlog())
	}
	if err := p.Flush(); !errors.Is(err, bang) {
		t.Fatalf("second flush err = %v", err)
	}
	if degraded != 1 {
		t.Fatalf("OnDegraded fired %d times, want once", degraded)
	}
	if got := tp.Events(); got != 0 {
		t.Fatalf("events delivered while faulted: %d", got)
	}

	b.SetAppendFault(nil)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if p.Degraded() || p.Backlog() != 0 {
		t.Fatalf("degraded=%v backlog=%d after recovery", p.Degraded(), p.Backlog())
	}
	if recovered != 1 {
		t.Fatalf("OnRecovered fired %d times, want once", recovered)
	}
	if got := tp.Events(); got != 5 {
		t.Fatalf("events after recovery = %d, want 5", got)
	}
	if p.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", p.Dropped())
	}
}

// TestBacklogBoundDropsOldest: with the broker down, the per-partition
// backlog is bounded at maxPendingBatches; the oldest batches are dropped and
// accounted, and the survivors ship once the broker returns.
func TestBacklogBoundDropsOldest(t *testing.T) {
	b, tp := newTopic(t, "t", 1)
	p := tp.NewProducer(ProducerOptions{
		BatchSize:    1, // every push seals and attempts shipment
		FlushRetries: 1,
		RetryBackoff: time.Microsecond,
	})
	b.SetAppendFault(func(string, int) error { return errors.New("unreachable") })
	for i := 0; i < maxPendingBatches+3; i++ {
		// Push reports the shipping failure but must not lose the event.
		if err := p.Push(Metadata{"i": i}, []byte("x")); err == nil {
			t.Fatalf("push %d: expected shipping error", i)
		}
	}
	if p.Backlog() != maxPendingBatches {
		t.Fatalf("backlog = %d, want bound of %d", p.Backlog(), maxPendingBatches)
	}
	if p.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", p.Dropped())
	}
	b.SetAppendFault(nil)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tp.Events(); got != maxPendingBatches {
		t.Fatalf("events after recovery = %d, want the %d retained", got, maxPendingBatches)
	}
}
