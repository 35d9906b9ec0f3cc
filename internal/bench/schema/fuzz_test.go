package schema

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzFileRoundTrip drives arbitrary bytes through the strict reader and
// asserts the invariant the regression gate depends on: anything Read
// accepts re-encodes canonically — Encode never fails on a validated
// File, a second Read reproduces the identical value, and a second Encode
// reproduces the identical bytes (sim baselines are diffed with byte
// equality, so canonical re-encoding is load-bearing, not cosmetic).
func FuzzFileRoundTrip(f *testing.F) {
	seed, err := Encode(&File{
		Schema: Version, Mode: ModeSim, Suite: "core", Scale: 0.05,
		Scenarios: []Scenario{
			{Name: "core/road_usa/p4", Metrics: map[string]float64{"sim_seconds": 1.5}},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"mndmst-bench/v2","mode":"sim","suite":"core",` +
		`"scenarios":[{"name":"comm/deltas/p4/64KiB","metrics":{"comm_seconds":0.00026,"bytes_sent":786432}},` +
		`{"name":"serve/jobs/hot","metrics":{"jobs":16,"result_cache_hits":15}}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"mndmst-bench/v2","mode":"sim","suite":"x","scenarios":[]}`))
	tables, err := Encode(&File{
		Schema: Version, Mode: ModeSim, Suite: "core", Scale: 0.05,
		Scenarios: []Scenario{
			{Name: "comm/deltas/p4/64KiB", Metrics: map[string]float64{"msgs": 12}},
		},
		Tables: []Table{
			{Name: "Table2", Title: "Table 2: Graph specifications", Header: []string{"graph", "|V|"},
				Rows: [][]string{{"road_usa", "1200"}}, Notes: []string{"1/1000 scale"}},
			{Name: "Ablation/Termination", Title: "Ablation: termination", Header: []string{"rule"},
				Rows: [][]string{}, Notes: []string{}},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tables)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return // invalid input rejected is the correct outcome
		}
		enc, err := Encode(got)
		if err != nil {
			t.Fatalf("Encode failed on a File Read accepted: %v", err)
		}
		again, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-Read of encoded output failed: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the value:\nfirst  %+v\nsecond %+v", got, again)
		}
		enc2, err := Encode(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical:\n%s\n---\n%s", enc, enc2)
		}
	})
}
