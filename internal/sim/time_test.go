package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// Times must travel as exactly the float text encoding/json writes for
// t.Seconds(), including the exponent form below one microsecond.
func TestTimeJSONMatchesFloatEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := []Time{0, 1, -1, 9, 10, 999, 1000, -999, Microsecond, Millisecond, Second, Minute,
		Time(math.MaxInt64), Time(math.MinInt64), Seconds(12.345)}
	for i := 0; i < 100000; i++ {
		cases = append(cases, Time(r.Int63n(int64(1)<<(1+r.Intn(62))))*Time(1-2*r.Intn(2)))
	}
	for _, tm := range cases {
		got, err := json.Marshal(tm)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(tm.Seconds())
		if string(got) != string(want) {
			t.Fatalf("%d ns encodes as %s, float64 encodes as %s", int64(tm), got, want)
		}
		var back Time
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		f, _ := strconv.ParseFloat(string(want), 64)
		if back != Seconds(f) {
			t.Fatalf("%s decodes to %d ns, Seconds gives %d", got, int64(back), int64(Seconds(f)))
		}
	}
}

func TestTimeJSONNullAndErrors(t *testing.T) {
	v := struct {
		At Time `json:"at"`
	}{At: 5}
	if err := json.Unmarshal([]byte(`{"at":null}`), &v); err != nil || v.At != 5 {
		t.Fatalf("null: at=%d err=%v", int64(v.At), err)
	}
	if err := json.Unmarshal([]byte(`{"at":"1.5"}`), &v); err == nil {
		t.Fatal("string time decoded")
	}
}
