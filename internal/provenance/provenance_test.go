package provenance

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"taskprov/internal/dask"
	"taskprov/internal/mofka"
	"taskprov/internal/sim"
)

// encode is the collector's half of the codec.
func encode(t testing.TB, rec any) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// roundTrip encodes a record and decodes it back as a consumer does.
func roundTrip[T any](t testing.TB, rec T) T {
	t.Helper()
	got, err := Decode[T](mofka.Event{Metadata: encode(t, rec)})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

var timeType = reflect.TypeOf(sim.Time(0))

// wireTimes returns a copy of rec with every sim.Time passed through the
// float seconds the wire carries, sim.Seconds(t.Seconds()): what a decoded
// record holds.
func wireTimes[T any](rec T) T {
	v := reflect.ValueOf(&rec).Elem()
	normalize(v)
	return rec
}

func normalize(v reflect.Value) {
	switch {
	case v.Type() == timeType:
		t := sim.Time(v.Int())
		v.SetInt(int64(sim.Seconds(t.Seconds())))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalize(v.Field(i))
		}
	case v.Kind() == reflect.Slice && !v.IsNil():
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		for i := 0; i < c.Len(); i++ {
			normalize(c.Index(i))
		}
		v.Set(c)
	}
}

// gen draws random record fields: valid UTF-8 strings with JSON-escaped
// characters, full-range integers, and times that include sub-microsecond
// values (exponent form on the wire) and values the float round trip
// truncates by 1 ns.
type gen struct {
	r     *rand.Rand
	lossy []sim.Time
}

func newGen(seed int64) *gen {
	g := &gen{r: rand.New(rand.NewSource(seed))}
	for len(g.lossy) < 64 {
		if t := sim.Time(g.r.Int63n(int64(1e13))); sim.Seconds(t.Seconds()) != t {
			g.lossy = append(g.lossy, t)
		}
	}
	return g
}

func (g *gen) str() string {
	const alphabet = "abcXYZ019 -_:/()'\"\\<>&\u00e9\u4e16\U0001F600\t\n"
	runes := []rune(alphabet)
	n := g.r.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = runes[g.r.Intn(len(runes))]
	}
	return string(out)
}

// opt returns s or "" with equal odds, for omitempty fields.
func (g *gen) opt(s string) string {
	if g.r.Intn(2) == 0 {
		return ""
	}
	return s
}

func (g *gen) time() sim.Time {
	switch g.r.Intn(5) {
	case 0:
		return 0
	case 1:
		return sim.Time(g.r.Int63n(1000)) // below 1 µs: e-notation
	case 2:
		return g.lossy[g.r.Intn(len(g.lossy))]
	case 3:
		return sim.Time(g.r.Int63())
	default:
		return sim.Time(g.r.Int63n(int64(1e13)))
	}
}

func (g *gen) optTime() sim.Time {
	if g.r.Intn(2) == 0 {
		return 0
	}
	return g.time()
}

func (g *gen) key() dask.TaskKey { return dask.TaskKey(g.str()) }

func (g *gen) i64() int64 { return g.r.Int63() - g.r.Int63() }

func (g *gen) taskMeta() dask.TaskMeta {
	m := dask.TaskMeta{Key: g.key(), Prefix: g.str(), Group: g.str(), GraphID: g.r.Int(), At: g.time()}
	for i := g.r.Intn(4); i > 0; i-- {
		m.Deps = append(m.Deps, g.key())
	}
	return m
}

func (g *gen) transition() dask.Transition {
	return dask.Transition{Key: g.key(), From: dask.TaskState(g.str()), To: dask.TaskState(g.str()),
		Stimulus: g.str(), Location: g.str(), At: g.time()}
}

func (g *gen) execution() dask.TaskExecution {
	e := dask.TaskExecution{Key: g.key(), Worker: g.str(), Hostname: g.str(), ThreadID: g.r.Uint64(),
		Start: g.time(), Stop: g.time(), OutputSize: g.i64(), GraphID: g.r.Int()}
	for i := g.r.Intn(3); i > 0; i-- {
		e.Files = append(e.Files, dask.FileEffect{Path: g.str(), SizeAfter: g.i64()})
	}
	return e
}

func (g *gen) transfer() dask.Transfer {
	return dask.Transfer{Key: g.key(), From: g.str(), To: g.str(), Bytes: g.i64(), Start: g.time(),
		Stop: g.time(), SameNode: g.r.Intn(2) == 0, ViaProxy: g.r.Intn(2) == 0, ResolveLatency: g.optTime()}
}

func (g *gen) proxy() dask.ProxyEvent {
	return dask.ProxyEvent{Op: g.str(), Key: g.key(), Worker: g.str(), Bytes: g.i64(), Resident: g.i64(),
		ResolveLatency: g.optTime(), At: g.time()}
}

func (g *gen) warning() dask.Warning {
	return dask.Warning{Kind: dask.WarningKind(g.str()), Worker: g.str(), Hostname: g.str(),
		At: g.time(), Duration: g.time(), Message: g.str()}
}

func (g *gen) heartbeat() dask.WorkerMetrics {
	return dask.WorkerMetrics{Worker: g.str(), At: g.time(), Memory: g.i64(), Executing: g.r.Int(), Ready: g.r.Int()}
}

func (g *gen) steal() dask.StealEvent {
	return dask.StealEvent{Key: g.key(), Victim: g.str(), Thief: g.str(), At: g.time()}
}

func (g *gen) speculation() dask.SpeculationEvent {
	return dask.SpeculationEvent{Kind: g.str(), Key: dask.TaskKey(g.opt(g.str())), Primary: g.opt(g.str()),
		Duplicate: g.opt(g.str()), Winner: g.opt(g.str()), Wasted: g.optTime(),
		Attempt: g.r.Intn(2) * g.r.Int(), Detail: g.opt(g.str()), At: g.time()}
}

func (g *gen) graph() GraphEvent {
	return GraphEvent{GraphID: g.r.Int(), Event: g.str(), At: g.time().Seconds()}
}

func checkRoundTrip[T any](t *testing.T, name string, rec T) {
	t.Helper()
	if got, want := roundTrip(t, rec), wireTimes(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s round trip:\n got %#v\nwant %#v\nwire %s", name, got, want, encode(t, rec))
	}
}

// TestRoundTripEveryRecord: Decode(Encode(r)) is r, with each time passed
// through the float seconds the wire carries, for every record type.
func TestRoundTripEveryRecord(t *testing.T) {
	g := newGen(1)
	for i := 0; i < 2000; i++ {
		checkRoundTrip(t, "task meta", g.taskMeta())
		checkRoundTrip(t, "transition", g.transition())
		checkRoundTrip(t, "execution", g.execution())
		checkRoundTrip(t, "transfer", g.transfer())
		checkRoundTrip(t, "proxy", g.proxy())
		checkRoundTrip(t, "warning", g.warning())
		checkRoundTrip(t, "heartbeat", g.heartbeat())
		checkRoundTrip(t, "steal", g.steal())
		checkRoundTrip(t, "speculation", g.speculation())
		checkRoundTrip(t, "graph", g.graph())
	}
	// The generator's lossy times really are lossy: the property above
	// covers the normalization, not just the exact case.
	lossy := g.lossy[0]
	if got := roundTrip(t, dask.StealEvent{At: lossy}).At; got == lossy || got != sim.Seconds(lossy.Seconds()) {
		t.Fatalf("lossy time %d ns decoded as %d ns", int64(lossy), int64(got))
	}
}

// TestOptionalFieldsOmitted: zero-valued optional fields leave no key on
// the wire, and set ones appear.
func TestOptionalFieldsOmitted(t *testing.T) {
	cases := []struct {
		rec     any
		absent  []string
		present []string
	}{
		{dask.TaskMeta{Key: "root"}, []string{"deps"}, []string{"key", "prefix", "group", "graph_id", "at"}},
		{dask.TaskMeta{Key: "k", Deps: []dask.TaskKey{"a"}}, nil, []string{"deps"}},
		{dask.TaskExecution{Key: "k"}, []string{"files"}, []string{"thread_id", "output_size", "graph_id"}},
		{dask.Transfer{Key: "k"}, []string{"via_proxy", "resolve_latency"}, []string{"same_node", "bytes"}},
		{dask.Transfer{Key: "k", ViaProxy: true, ResolveLatency: sim.Millisecond}, nil, []string{"via_proxy", "resolve_latency"}},
		{dask.ProxyEvent{Op: "free"}, []string{"resolve_latency"}, []string{"op", "key", "worker", "bytes", "resident", "at"}},
		{dask.SpeculationEvent{Kind: "retry"}, []string{"key", "primary", "duplicate", "winner", "wasted", "attempt", "detail"}, []string{"kind", "at"}},
	}
	for _, c := range cases {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(encode(t, c.rec), &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range c.absent {
			if _, ok := m[k]; ok {
				t.Errorf("%T: zero %q on the wire: %v", c.rec, k, m)
			}
		}
		for _, k := range c.present {
			if _, ok := m[k]; !ok {
				t.Errorf("%T: %q missing from the wire: %v", c.rec, k, m)
			}
		}
	}
}

// parentLines are events as earlier releases wrote them: a hand-built map
// encoded with sorted keys, every optional key present, times as float
// seconds. Data dirs and run dirs holding them must keep loading.
var parentLines = []struct {
	line string
	want any
}{
	{`{"at":3.436072788,"deps":[],"graph_id":1,"group":"imread-1b00d1498fcd","key":"imread-1b00d1498fcd","prefix":"imread"}`,
		// An empty list decodes as an empty slice; consumers only range over it.
		dask.TaskMeta{Key: "imread-1b00d1498fcd", Prefix: "imread", Group: "imread-1b00d1498fcd", GraphID: 1,
			Deps: []dask.TaskKey{}, At: sim.Seconds(3.436072788)}},
	{`{"at":28.4,"deps":["a-1","b-2"],"graph_id":2,"group":"c-3","key":"c-3","prefix":"c"}`,
		dask.TaskMeta{Key: "c-3", Prefix: "c", Group: "c-3", GraphID: 2, Deps: []dask.TaskKey{"a-1", "b-2"}, At: sim.Seconds(28.4)}},
	{`{"at":3.436072788,"from":"released","key":"imread-1b00d1498fcd","location":"scheduler","stimulus":"update-graph","to":"waiting"}`,
		dask.Transition{Key: "imread-1b00d1498fcd", From: "released", To: "waiting", Stimulus: "update-graph",
			Location: "scheduler", At: sim.Seconds(3.436072788)}},
	{`{"graph_id":1,"hostname":"nid27621","key":"imread-a000c34507e0","output_size":88080384,"start":3.436234369,"stop":3.80782847,"thread_id":7005,"worker":"tcp://nid27621:40006"}`,
		dask.TaskExecution{Key: "imread-a000c34507e0", Worker: "tcp://nid27621:40006", Hostname: "nid27621", ThreadID: 7005,
			Start: sim.Seconds(3.436234369), Stop: sim.Seconds(3.80782847), OutputSize: 88080384, GraphID: 1}},
	{`{"files":[{"path":"/lus/grand/bcss/out/stage-045.zarr","size_after":4823449600}],"graph_id":1,"hostname":"nid08970","key":"store-zarr-26830d127fb4","output_size":8,"start":28.425710333,"stop":28.557405325,"thread_id":3004,"worker":"tcp://nid08970:40002"}`,
		dask.TaskExecution{Key: "store-zarr-26830d127fb4", Worker: "tcp://nid08970:40002", Hostname: "nid08970", ThreadID: 3004,
			Start: sim.Seconds(28.425710333), Stop: sim.Seconds(28.557405325), OutputSize: 8, GraphID: 1,
			Files: []dask.FileEffect{{Path: "/lus/grand/bcss/out/stage-045.zarr", SizeAfter: 4823449600}}}},
	{`{"bytes":58720256,"from":"tcp://nid27621:40006","key":"imread-fc00afc0381b","resolve_latency":0.000748357,"same_node":true,"start":3.854816678,"stop":3.855565035,"to":"tcp://nid27621:40004","via_proxy":true}`,
		dask.Transfer{Key: "imread-fc00afc0381b", From: "tcp://nid27621:40006", To: "tcp://nid27621:40004", Bytes: 58720256,
			Start: sim.Seconds(3.854816678), Stop: sim.Seconds(3.855565035), SameNode: true, ViaProxy: true,
			ResolveLatency: sim.Seconds(0.000748357)}},
	{`{"bytes":1024,"from":"a","key":"k","same_node":false,"start":1,"stop":2,"to":"b"}`,
		dask.Transfer{Key: "k", From: "a", To: "b", Bytes: 1024, Start: sim.Second, Stop: 2 * sim.Second}},
	{`{"at":3.80782847,"bytes":88080384,"key":"imread-a000c34507e0","op":"publish","resident":88080384,"resolve_latency":0,"worker":"tcp://nid27621:40006"}`,
		dask.ProxyEvent{Op: "publish", Key: "imread-a000c34507e0", Worker: "tcp://nid27621:40006", Bytes: 88080384,
			Resident: 88080384, At: sim.Seconds(3.80782847)}},
	{`{"at":7.931248605,"duration":0,"hostname":"nid08970","kind":"key_recomputed","message":"key normalize-2644afab2347 lost its last replica; recomputing","worker":"tcp://nid08970:40002"}`,
		dask.Warning{Kind: dask.WarnKeyRecomputed, Worker: "tcp://nid08970:40002", Hostname: "nid08970",
			At: sim.Seconds(7.931248605), Message: "key normalize-2644afab2347 lost its last replica; recomputing"}},
	{`{"at":1.443587218,"executing":0,"memory":0,"ready":0,"worker":"tcp://nid08970:40001"}`,
		dask.WorkerMetrics{Worker: "tcp://nid08970:40001", At: sim.Seconds(1.443587218)}},
	{`{"at":28.60030391,"key":"store-zarr-fd8307ed56bc","thief":"tcp://nid08970:40002","victim":"tcp://nid08970:40003"}`,
		dask.StealEvent{Key: "store-zarr-fd8307ed56bc", Victim: "tcp://nid08970:40003", Thief: "tcp://nid08970:40002",
			At: sim.Seconds(28.60030391)}},
	{`{"at":6.5,"attempt":2,"detail":"timeout after 40ms","kind":"retry","primary":"badnode"}`,
		dask.SpeculationEvent{Kind: dask.SpecRetry, Primary: "badnode", Attempt: 2, Detail: "timeout after 40ms", At: sim.Seconds(6.5)}},
	{`{"at":9.25,"duplicate":"tcp://n1:40002","key":"work-01","kind":"cancelled","primary":"tcp://n0:40000","wasted":2.5}`,
		dask.SpeculationEvent{Kind: dask.SpecCancelled, Key: "work-01", Primary: "tcp://n0:40000", Duplicate: "tcp://n1:40002",
			Wasted: sim.Seconds(2.5), At: sim.Seconds(9.25)}},
	{`{"at":33.744974566,"event":"done","graph_id":1}`,
		GraphEvent{GraphID: 1, Event: GraphDone, At: 33.744974566}},
}

// decodeAs decodes line into a fresh value of want's dynamic type.
func decodeAs(line string, want any) (any, error) {
	p := reflect.New(reflect.TypeOf(want))
	err := json.Unmarshal([]byte(line), p.Interface())
	return p.Elem().Interface(), err
}

func TestDecodeParentEncoding(t *testing.T) {
	for _, c := range parentLines {
		got, err := decodeAs(c.line, c.want)
		if err != nil {
			t.Fatalf("%s: %v", c.line, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s\n got %#v\nwant %#v", c.line, got, c.want)
		}
	}
}

// fixedPoint decodes data as a T and, if it decodes, re-encodes it until
// the bytes stop changing. Strings and integers settle after one pass; a
// time settles within a few, since each float round trip can only move it
// toward zero.
func fixedPoint[T any](t *testing.T, data []byte) {
	var r T
	if json.Unmarshal(data, &r) != nil {
		return
	}
	b := encode(t, r)
	for round := 0; round < 64; round++ {
		var next T
		if err := json.Unmarshal(b, &next); err != nil {
			t.Fatalf("%T re-encoding %s does not decode: %v", r, b, err)
		}
		nb := encode(t, next)
		if bytes.Equal(nb, b) {
			return
		}
		b = nb
	}
	t.Fatalf("%T encoding of %q reaches no fixed point", r, data)
}

// FuzzDecode: arbitrary bytes never panic any record decoder, and any
// record that decodes re-encodes to a fixed point.
func FuzzDecode(f *testing.F) {
	for _, c := range parentLines {
		f.Add([]byte(c.line))
	}
	f.Add([]byte(`{"at":1e-9,"stop":9.223372036854775807e9,"start":-0,"thread_id":18446744073709551615}`))
	f.Add([]byte(`{"at":null,"deps":null,"files":[{}],"KEY":"case-folded"}`))
	f.Add([]byte(`{"at":"1.5"}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint[dask.TaskMeta](t, data)
		fixedPoint[dask.Transition](t, data)
		fixedPoint[dask.TaskExecution](t, data)
		fixedPoint[dask.Transfer](t, data)
		fixedPoint[dask.ProxyEvent](t, data)
		fixedPoint[dask.Warning](t, data)
		fixedPoint[dask.WorkerMetrics](t, data)
		fixedPoint[dask.StealEvent](t, data)
		fixedPoint[dask.SpeculationEvent](t, data)
		fixedPoint[GraphEvent](t, data)
	})
}

// TestDrainDecodesInOrder: Drain returns every event of a topic as its
// record type, and a corrupt event fails the drain instead of panicking.
func TestDrainDecodesInOrder(t *testing.T) {
	b := mofka.NewStandaloneBroker()
	tp, err := b.CreateTopic(mofka.TopicConfig{Name: TopicSteals, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := tp.NewProducer(mofka.ProducerOptions{})
	want := []dask.StealEvent{{Key: "a", At: sim.Second}, {Key: "b", At: 2 * sim.Second}}
	for _, s := range want {
		if err := p.PushRaw(encode(t, s), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Drain[dask.StealEvent](b, TopicSteals)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("drain = %+v, %v", got, err)
	}
	if _, err := Drain[dask.StealEvent](b, "no-such-topic"); err == nil {
		t.Fatal("drained a missing topic")
	}
	if err := p.PushRaw([]byte(`{"at":"soon"}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[dask.StealEvent](b, TopicSteals); err == nil {
		t.Fatal("corrupt event decoded")
	}
}
