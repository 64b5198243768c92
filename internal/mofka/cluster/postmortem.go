package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"taskprov/internal/mofka"
	"taskprov/internal/mofka/wal"
)

// Durable cluster layout:
//
//	<DataDir>/cluster.json        deployment shape (broker count, RF, quorum)
//	<DataDir>/node-<NN>/...       one standard broker data directory per node
//
// Each node directory is exactly what a standalone durable broker writes —
// topics/<name>/p<NNNN>/*.seg WAL segments plus cursors.json — so every
// existing WAL tool (recovery, torn-tail truncation, post-mortem loading)
// applies per node unchanged.

const clusterMetaFile = "cluster.json"

type clusterMeta struct {
	Brokers           int `json:"brokers"`
	ReplicationFactor int `json:"replication_factor"`
	Quorum            int `json:"quorum"`
}

func nodeDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("node-%02d", i))
}

func writeClusterMeta(dataDir string, m clusterMeta) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("cluster: data dir: %w", err)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(filepath.Join(dataDir, clusterMetaFile), b)
}

func loadClusterMeta(dataDir string) (clusterMeta, bool, error) {
	b, err := os.ReadFile(filepath.Join(dataDir, clusterMetaFile))
	if os.IsNotExist(err) {
		return clusterMeta{}, false, nil
	}
	if err != nil {
		return clusterMeta{}, false, fmt.Errorf("cluster: read %s: %w", clusterMetaFile, err)
	}
	var m clusterMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return clusterMeta{}, false, fmt.Errorf("cluster: corrupt %s: %w", clusterMetaFile, err)
	}
	return m, true, nil
}

// IsClusterDir reports whether dir looks like a durable cluster data
// directory. perfrecup's loader dispatches on it before trying the
// single-broker and event-log formats.
func IsClusterDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, clusterMetaFile))
	return err == nil
}

// OpenPostMortem loads a durable cluster directory for analysis without any
// live broker process and merges it into one read-only in-memory broker:
// for every partition the longest recovered replica log wins (replica logs
// are prefix-consistent, so the longest is a superset of the others), and
// for every consumer cursor the maximum across node cursor stores wins.
// The on-disk state is never modified.
func OpenPostMortem(dataDir string) (*mofka.Broker, error) {
	meta, ok, err := loadClusterMeta(dataDir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("cluster: %s is not a cluster data directory", dataDir)
	}

	type loaded struct {
		id int
		b  *mofka.Broker
	}
	var nodes []loaded
	for i := 0; i < meta.Brokers; i++ {
		dir := nodeDir(dataDir, i)
		if !mofka.IsDataDir(dir) {
			continue // node never wrote anything (or directory lost)
		}
		nb, err := mofka.OpenPostMortem(dir)
		if err != nil {
			return nil, fmt.Errorf("cluster: load node %d: %w", i, err)
		}
		nodes = append(nodes, loaded{i, nb})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: %s holds no recoverable node directories", dataDir)
	}

	view := mofka.NewStandaloneBroker()

	// Topic union across nodes; config from the first node holding it.
	seen := make(map[string]bool)
	for _, n := range nodes {
		for _, name := range n.b.Topics() {
			if seen[name] {
				continue
			}
			seen[name] = true
			src, err := n.b.OpenTopic(name)
			if err != nil {
				return nil, err
			}
			cfg := src.Config()
			vt, err := view.CreateTopic(cfg)
			if err != nil {
				return nil, err
			}
			for pi := 0; pi < cfg.Partitions; pi++ {
				// Longest replica log holds every acknowledged event.
				var donor *mofka.Partition
				var donorLen uint64
				for _, m := range nodes {
					mt, err := m.b.OpenTopic(name)
					if err != nil {
						continue
					}
					mp, err := mt.Partition(pi)
					if err != nil {
						continue
					}
					if l := mp.Length(); donor == nil || l > donorLen {
						donor, donorLen = mp, l
					}
				}
				if donor == nil || donorLen == 0 {
					continue
				}
				vp, err := vt.Partition(pi)
				if err != nil {
					return nil, err
				}
				if err := copyPartition(donor, vp, donorLen); err != nil {
					return nil, fmt.Errorf("cluster: merge %s[%d]: %w", name, pi, err)
				}
			}
		}
	}

	// Cursors: max across node stores per (consumer, topic, partition).
	type ckey struct {
		consumer, topic string
		part            int
	}
	cursors := make(map[ckey]uint64)
	for _, n := range nodes {
		for _, cur := range n.b.Cursors() {
			k := ckey{cur.Consumer, cur.Topic, cur.Partition}
			if cur.Next > cursors[k] {
				cursors[k] = cur.Next
			}
		}
	}
	for k, next := range cursors {
		if err := view.CommitCursor(k.consumer, k.topic, k.part, next); err != nil {
			return nil, err
		}
	}
	return view, nil
}

func copyPartition(src, dst *mofka.Partition, n uint64) error {
	var from uint64
	for from < n {
		evs, err := src.ReadFrom(from, 1024, true)
		if err != nil {
			return err
		}
		if len(evs) == 0 {
			break
		}
		metas := make([][]byte, len(evs))
		datas := make([][]byte, len(evs))
		for i, ev := range evs {
			metas[i] = ev.Metadata
			datas[i] = ev.Data
		}
		if err := dst.Append(metas, datas); err != nil {
			return err
		}
		from += uint64(len(evs))
	}
	return nil
}
