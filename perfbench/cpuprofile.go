package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The standard library has no
// public reader for it, so this file decodes the few fields the benchmark
// needs: each sample's stack and count, each location's inlined function
// chain, and function names.

// Field numbers in profile.proto.
const (
	pbProfileSample   = 2
	pbProfileLocation = 4
	pbProfileFunction = 5
	pbProfileStrings  = 6

	pbSampleLocation = 1
	pbSampleValue    = 2

	pbLocationID   = 1
	pbLocationLine = 4
	pbLineFunction = 1

	pbFunctionID   = 1
	pbFunctionName = 2
)

// pbField is one decoded protobuf field: u for varint and fixed wire types,
// b for length-delimited ones.
type pbField struct {
	num, wire int
	u         uint64
	b         []byte
}

// pbWalk calls fn for each top-level field of one protobuf message.
func pbWalk(msg []byte, fn func(pbField) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("cpuprofile: bad field key")
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.u, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("cpuprofile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("cpuprofile: short fixed64")
			}
			f.u, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("cpuprofile: bad length")
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("cpuprofile: short fixed32")
			}
			f.u, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("cpuprofile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field in either packed or unpacked form.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("cpuprofile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// cpuSample is one stack with its sample count; stack[0] is the leaf and
// each frame lists its inlined functions innermost first.
type cpuSample struct {
	count int64
	stack [][]string
}

// parseCPUProfile decodes a (gzipped) runtime/pprof CPU profile.
func parseCPUProfile(r io.Reader) ([]cpuSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		rawSamples []rawSample
		strs       []string
		locFuncs   = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcName   = map[uint64]uint64{}   // function -> string index
	)
	err = pbWalk(raw, func(f pbField) error {
		switch f.num {
		case pbProfileSample:
			var s rawSample
			err := pbWalk(f.b, func(g pbField) (err error) {
				switch g.num {
				case pbSampleLocation:
					s.locs, err = pbUints(g, s.locs)
				case pbSampleValue:
					s.vals, err = pbUints(g, s.vals)
				}
				return err
			})
			rawSamples = append(rawSamples, s)
			return err
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			err := pbWalk(f.b, func(g pbField) error {
				switch g.num {
				case pbLocationID:
					id = g.u
				case pbLocationLine:
					return pbWalk(g.b, func(h pbField) error {
						if h.num == pbLineFunction {
							fns = append(fns, h.u)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case pbProfileFunction:
			var id, name uint64
			err := pbWalk(f.b, func(g pbField) error {
				switch g.num {
				case pbFunctionID:
					id = g.u
				case pbFunctionName:
					name = g.u
				}
				return nil
			})
			funcName[id] = name
			return err
		case pbProfileStrings:
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i, ok := funcName[fn]; ok && i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	out := make([]cpuSample, 0, len(rawSamples))
	for _, s := range rawSamples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			var frame []string
			for _, fn := range locFuncs[loc] {
				frame = append(frame, name(fn))
			}
			cs.stack = append(cs.stack, frame)
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuLayers maps package paths to the cpu.<layer> metric their self time
// counts toward; the longest matching prefix wins.
var cpuLayers = map[string]string{
	"taskprov/internal/sim":           "cpu.sim",
	"taskprov/internal/platform":      "cpu.sim",
	"taskprov/internal/pfs":           "cpu.sim",
	"taskprov/internal/posixio":       "cpu.sim",
	"taskprov/internal/dask":          "cpu.dask",
	"taskprov/internal/core":          "cpu.core",
	"taskprov/internal/provenance":    "cpu.provenance",
	"taskprov/internal/mofka":         "cpu.mofka",
	"taskprov/internal/mofka/wal":     "cpu.wal",
	"taskprov/internal/mofka/cluster": "cpu.cluster",
	"taskprov/internal/mochi":         "cpu.mochi",
	"taskprov/internal/darshan":       "cpu.darshan",
	"taskprov/internal/live":          "cpu.live",
	"taskprov/internal/whatif":        "cpu.whatif",
	"taskprov/internal/perfrecup":     "cpu.perfrecup",
	"encoding/json":                   "cpu.json",
	"runtime":                         "cpu.runtime",
	"internal/runtime":                "cpu.runtime",
	gcPackage:                         "cpu.gc",
}

// gcPackage stands in for a package name in samples taken under a
// garbage-collector root.
const gcPackage = "(gc)"

// cpuMetrics lists every share metric cpuShares reports, so the printed set
// does not depend on which layers a profile happened to sample.
var cpuMetrics = []string{
	"cpu.sim", "cpu.dask", "cpu.core", "cpu.provenance", "cpu.mofka", "cpu.wal",
	"cpu.cluster", "cpu.mochi", "cpu.darshan", "cpu.live", "cpu.whatif",
	"cpu.perfrecup", "cpu.json", "cpu.gc", "cpu.runtime", "cpu.other",
}

// gcRoots are the runtime functions under which all garbage-collector work
// runs; a sample with one of them on its stack is GC time.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// funcPackage returns the import path of a symbol such as
// "taskprov/internal/mofka.(*Producer).PushRaw". Symbols without a package
// qualifier are the runtime's assembly routines (memeqbody, aeshashbody).
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may contain other import paths
	}
	slash := strings.LastIndex(sym, "/")
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return "runtime"
	}
	return sym[:slash+1+dot]
}

// layerOf classifies a package path into a cpu.<layer> metric.
func layerOf(pkg string) string {
	for p := pkg; p != ""; {
		if m, ok := cpuLayers[p]; ok {
			return m
		}
		i := strings.LastIndex(p, "/")
		if i < 0 {
			break
		}
		p = p[:i]
	}
	return "cpu.other"
}

// selfPackage is the package a sample's self time belongs to: that of its
// innermost frame, or gcPackage when a garbage-collector root is on the
// stack.
func selfPackage(s cpuSample) string {
	for _, frame := range s.stack {
		for _, fn := range frame {
			if gcRoots[fn] {
				return gcPackage
			}
		}
	}
	if len(s.stack) > 0 && len(s.stack[0]) > 0 {
		return funcPackage(s.stack[0][0])
	}
	return "?"
}

// packageCounts sums sample counts by selfPackage.
func packageCounts(all []cpuSample) map[string]int64 {
	counts := make(map[string]int64)
	for _, s := range all {
		counts[selfPackage(s)] += s.count
	}
	return counts
}

// cpuShares returns each layer's share of the profile's samples, in percent,
// and the total sample count.
func cpuShares(all []cpuSample) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for pkg, n := range packageCounts(all) {
		counts[layerOf(pkg)] += n
		total += n
	}
	shares := make(map[string]float64, len(cpuMetrics))
	for _, m := range cpuMetrics {
		shares[m] = 100 * float64(counts[m]) / float64(max(total, 1))
	}
	return shares, total
}
