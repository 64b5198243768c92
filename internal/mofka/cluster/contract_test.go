package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"taskprov/internal/mofka"
)

// contractTopic is one deployment's view of a fresh two-partition topic:
// how to produce into it, how many events it holds, and how to make its
// appends fail persistently and then heal.
type contractTopic struct {
	producer   func(mofka.ProducerOptions) *mofka.Producer
	events     func() int
	fail, heal func()
}

// validSize rejects metadata shorter than 5 bytes.
func validSize(meta []byte) error {
	if len(meta) < 5 {
		return errors.New("too small")
	}
	return nil
}

func standaloneContractTopic(t *testing.T) contractTopic {
	b := mofka.NewStandaloneBroker()
	t.Cleanup(func() { _ = b.Close() })
	tp, err := b.CreateTopic(mofka.TopicConfig{Name: "contract", Partitions: 2, Validator: validSize})
	if err != nil {
		t.Fatal(err)
	}
	return contractTopic{
		producer: tp.NewProducer,
		events:   func() int { return int(tp.Events()) },
		fail:     func() { b.SetAppendFault(func(string, int) error { return errors.New("broker unreachable") }) },
		heal:     func() { b.SetAppendFault(nil) },
	}
}

// clusterContractTopic faults the cluster by killing two of its three
// brokers, which leaves every RF2 partition below its quorum of 2.
func clusterContractTopic(t *testing.T) contractTopic {
	c := newTestCluster(t, 3, 2)
	ct, err := c.EnsureTopic(mofka.TopicConfig{Name: "contract", Partitions: 2, Validator: validSize})
	if err != nil {
		t.Fatal(err)
	}
	return contractTopic{
		producer: ct.Producer,
		events:   func() int { return len(drainAll(t, c, "contract", 2)) },
		fail: func() {
			for _, id := range []int{0, 1} {
				if err := c.KillBroker(id); err != nil {
					t.Fatal(err)
				}
			}
		},
		heal: func() {
			for _, id := range []int{0, 1} {
				if err := c.RestartBroker(id); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
}

// TestProducerContract runs the behaviours every deployment's producer
// shares against a standalone topic and a 3-broker RF2 cluster topic.
func TestProducerContract(t *testing.T) {
	push := func(t *testing.T, p *mofka.Producer, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if err := p.Push(mofka.Metadata{"i": i}, []byte(fmt.Sprintf("d%d", i))); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
		}
	}
	behaviours := []struct {
		name string
		run  func(t *testing.T, ct contractTopic)
	}{
		{"batch size triggers shipment", func(t *testing.T, ct contractTopic) {
			p := ct.producer(mofka.ProducerOptions{BatchSize: 4})
			push(t, p, 0, 8) // round-robin fills both partitions' batches
			if got := ct.events(); got != 8 {
				t.Fatalf("events after size trigger = %d, want 8", got)
			}
			push(t, p, 8, 1)
			if got := ct.events(); got != 8 {
				t.Fatalf("events after a ninth push = %d, want 8", got)
			}
		}},
		{"events invisible until flush", func(t *testing.T, ct contractTopic) {
			p := ct.producer(mofka.ProducerOptions{BatchSize: 100})
			push(t, p, 0, 3)
			if got := ct.events(); got != 0 {
				t.Fatalf("events visible before flush: %d", got)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := ct.events(); got != 3 {
				t.Fatalf("events after flush = %d, want 3", got)
			}
		}},
		{"close ships last batch and refuses pushes", func(t *testing.T, ct contractTopic) {
			p := ct.producer(mofka.ProducerOptions{BatchSize: 100})
			push(t, p, 0, 3)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if got := ct.events(); got != 3 {
				t.Fatalf("events after Close = %d, want 3", got)
			}
			if err := p.Push(mofka.Metadata{"i": 9}, nil); !errors.Is(err, mofka.ErrClosed) {
				t.Fatalf("push after Close err = %v, want ErrClosed", err)
			}
			if err := p.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		}},
		{"validator rejects bad metadata", func(t *testing.T, ct contractTopic) {
			p := ct.producer(mofka.ProducerOptions{BatchSize: 1})
			if err := p.PushRaw([]byte(`{}`), nil); !errors.Is(err, mofka.ErrInvalidEvent) {
				t.Fatalf("validator not applied: %v", err)
			}
			if err := p.PushRaw([]byte(`{"ok":1}`), nil); err != nil {
				t.Fatalf("valid event rejected: %v", err)
			}
			if got := ct.events(); got != 1 {
				t.Fatalf("events = %d, want only the valid one", got)
			}
		}},
		{"degraded then recovered", func(t *testing.T, ct contractTopic) {
			var degraded, recovered int
			p := ct.producer(mofka.ProducerOptions{
				BatchSize:    100,
				FlushRetries: 1,
				RetryBackoff: time.Millisecond,
				OnDegraded:   func(error) { degraded++ },
				OnRecovered:  func() { recovered++ },
			})
			push(t, p, 0, 5)
			ct.fail()
			for i := 0; i < 2; i++ {
				if err := p.Flush(); err == nil {
					t.Fatalf("flush %d under fault succeeded", i)
				}
			}
			if !p.Degraded() || p.Backlog() == 0 {
				t.Fatalf("degraded=%v backlog=%d under fault", p.Degraded(), p.Backlog())
			}
			ct.heal()
			if err := p.Flush(); err != nil {
				t.Fatalf("flush after recovery: %v", err)
			}
			if p.Degraded() || p.Backlog() != 0 || p.Dropped() != 0 {
				t.Fatalf("degraded=%v backlog=%d dropped=%d after recovery", p.Degraded(), p.Backlog(), p.Dropped())
			}
			if degraded != 1 || recovered != 1 {
				t.Fatalf("OnDegraded fired %d times, OnRecovered %d, want once each", degraded, recovered)
			}
			if got := ct.events(); got != 5 {
				t.Fatalf("events after recovery = %d, want 5", got)
			}
		}},
	}
	backends := []struct {
		name string
		open func(*testing.T) contractTopic
	}{
		{"standalone", standaloneContractTopic},
		{"cluster", clusterContractTopic},
	}
	for _, be := range backends {
		for _, bh := range behaviours {
			t.Run(be.name+"/"+bh.name, func(t *testing.T) { bh.run(t, be.open(t)) })
		}
	}
}
