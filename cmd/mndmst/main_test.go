package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst"
	"mndmst/internal/obs"
)

// TestMain lets the test binary double as a -launch worker: launchLocal
// re-execs os.Executable(), which under `go test` is this binary. Worker
// children are recognized by the -coordinator=ADDR argument launchLocal
// appends, before the testing framework parses any flags.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if strings.HasPrefix(arg, "-coordinator=") {
			if err := run(os.Args[1:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mndmst:", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// freeLoopbackAddr reserves an ephemeral port and releases it for the
// lead to claim — a tiny race tests accept for the convenience of a
// known coordinator address.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestLaunchLocalForksWorkers(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-launch", "local:3", "-profile", "road_usa", "-scale", "0.03", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"launch: 3 workers via coordinator",
		"graph:", "forest:", "simulated:",
		"real:", "wall", // multi-process runs report real elapsed time
		"verified: exact minimum spanning forest",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// Exactly one worker (rank 0) prints the summary.
	if got := strings.Count(out.String(), "forest:"); got != 1 {
		t.Fatalf("%d forest lines (want 1):\n%s", got, out.String())
	}
}

// TestLaunchLocalMatchesInProcessForest: forked TCP ranks print the
// in-process run's forest and simulated lines, also under benign chaos
// (duplicates, reordering and delays a correct run must absorb).
func TestLaunchLocalMatchesInProcessForest(t *testing.T) {
	for _, tc := range []struct {
		name, profile, scale, nodes string
		extra                       []string
	}{
		{"arabic", "arabic-2005", "0.05", "4", nil},
		{"road-benign-chaos", "road_usa", "0.03", "3", []string{
			"-chaos-seed", "7", "-chaos-dup", "0.05", "-chaos-reorder", "0.05", "-chaos-delay", "0.05"}},
		// arabic-2005 has 27 edges per vertex, so the ranks filter: the
		// light forest's broadcast tree is uneven at 3 ranks.
		{"arabic-filtered-benign-chaos", "arabic-2005", "0.05", "3", []string{
			"-chaos-seed", "7", "-chaos-dup", "0.05", "-chaos-reorder", "0.05", "-chaos-delay", "0.05"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-profile", tc.profile, "-scale", tc.scale}
			var inproc strings.Builder
			if err := run(append([]string{"-nodes", tc.nodes}, args...), &inproc); err != nil {
				t.Fatal(err)
			}
			var tcp strings.Builder
			launch := append([]string{"-launch", "local:" + tc.nodes}, args...)
			if err := run(append(launch, tc.extra...), &tcp); err != nil {
				t.Fatal(err)
			}
			pick := func(s, prefix string) string {
				for _, line := range strings.Split(s, "\n") {
					if strings.HasPrefix(line, prefix) {
						return line
					}
				}
				return ""
			}
			forestIn, forestTCP := pick(inproc.String(), "forest:"), pick(tcp.String(), "forest:")
			if forestIn == "" || forestIn != forestTCP {
				t.Fatalf("forest lines diverge:\n  in-process: %s\n  tcp:        %s", forestIn, forestTCP)
			}
			simIn, simTCP := pick(inproc.String(), "simulated:"), pick(tcp.String(), "simulated:")
			if simIn == "" || simIn != simTCP {
				t.Fatalf("simulated lines diverge:\n  in-process: %s\n  tcp:        %s", simIn, simTCP)
			}
			if tc.extra != nil && !strings.Contains(tcp.String(), "chaos: fault injection armed (seed 7)") {
				t.Fatalf("chaos run does not say chaos is armed:\n%s", tcp.String())
			}
		})
	}
}

func TestLaunchRejectsBadSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-launch", "local:0"},
		{"-launch", "local:-2"},
		{"-launch", "slurm:4"},
		{"-launch", "local:2", "-system", "bsp"},
		{"-launch", "local:2", "-app", "bfs"},
		// Flags of one process only: the parent runs no rank, and every
		// child would repeat them.
		{"-launch", "local:2", "-metrics-dump"},
		{"-launch", "local:2", "-metrics-listen", "127.0.0.1:0"},
		{"-launch", "local:2", "-pprof"},
		{"-launch", "local:2", "-lead"},
		{"-launch", "local:2", "-coordinator", "127.0.0.1:1"},
		{"-launch", "local:2", "-coordinator-listen", "127.0.0.1:0"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestWorkerArgs: each forked rank gets the user's flags without -launch,
// its own retry seed (so a failed launch replays) and the coordinator.
func TestWorkerArgs(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		retrySeed int64
		seeds     []string
	}{
		{[]string{"-launch", "local:3", "-profile", "road_usa"}, 0,
			[]string{"-retry-seed=1", "-retry-seed=2", "-retry-seed=3"}},
		{[]string{"-launch", "local:3", "-retry-seed", "40", "-profile", "road_usa"}, 40,
			[]string{"-retry-seed=40", "-retry-seed=41", "-retry-seed=42"}},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.String("launch", "", "")
		fs.String("profile", "", "")
		fs.Int64("retry-seed", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := workerArgs(fs, 3, tc.retrySeed, "127.0.0.1:9")
		if len(got) != 3 {
			t.Fatalf("%v: %d command lines, want 3", tc.args, len(got))
		}
		for i, args := range got {
			want := []string{"-profile=road_usa", tc.seeds[i], "-coordinator=127.0.0.1:9"}
			if !slices.Equal(args, want) {
				t.Fatalf("%v: worker %d args %q, want %q", tc.args, i, args, want)
			}
		}
	}
}

func TestLeadSingleRank(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-lead", "-nodes", "1",
		"-profile", "road_usa", "-scale", "0.02", "-verify",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"coordinator listening on", "forest:", "simulated:", "real:", "verified: exact"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestLeadAndJoiningWorker(t *testing.T) {
	addr := freeLoopbackAddr(t)
	graphArgs := []string{"-profile", "road_usa", "-scale", "0.03"}

	var leadOut, workOut strings.Builder
	var leadErr, workErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		leadErr = run(append([]string{
			"-lead", "-nodes", "2", "-coordinator-listen", addr, "-verify", "-rankprofile",
		}, graphArgs...), &leadOut)
	}()
	go func() {
		defer wg.Done()
		time.Sleep(100 * time.Millisecond) // let the lead bind its port
		workErr = run(append([]string{
			"-coordinator", addr, "-verify", "-rankprofile",
		}, graphArgs...), &workOut)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("two-rank run deadlocked")
	}
	if leadErr != nil {
		t.Fatalf("lead: %v\n%s", leadErr, leadOut.String())
	}
	if workErr != nil {
		t.Fatalf("worker: %v\n%s", workErr, workOut.String())
	}
	combined := leadOut.String() + workOut.String()
	// Exactly one of the two processes is rank 0 and prints the summary.
	if got := strings.Count(combined, "forest:"); got != 1 {
		t.Fatalf("%d forest lines (want 1):\nlead:\n%s\nworker:\n%s", got, leadOut.String(), workOut.String())
	}
	for _, want := range []string{"real:", "wall", "load balance", "verified: exact"} {
		if !strings.Contains(combined, want) {
			t.Fatalf("output missing %q:\nlead:\n%s\nworker:\n%s", want, leadOut.String(), workOut.String())
		}
	}
}

// TestRunFlagErrors: the TCP rank flags are checked like the rest. A bare
// invocation is not an error here: it runs in-process.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-lead", "-coordinator", "127.0.0.1:1"}, // mutually exclusive
		{"-lead", "-nodes", "0"},
		{"-coordinator", "127.0.0.1:1", "-machine", "vax"},
		{"-badflag"},
		// N forked children would all write the one file.
		{"-launch", "local:2", "-save", "g.mnd"},
		// -system all fixes its own configurations and prints only text.
		{"-system", "all", "-app", "bfs"},
		{"-system", "all", "-json"},
		{"-system", "all", "-nodes", "4"},
		{"-system", "all", "-machine", "amd"},
		{"-system", "all", "-gpu"},
		{"-system", "all", "-gpus", "2"},
		{"-system", "all", "-group", "2"},
		{"-system", "all", "-trace", "t.jsonl"},
		{"-system", "all", "-rankprofile"},
		{"-system", "all", "-metrics-dump"},
		{"-system", "all", "-lead"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestStartMetricsServer: the scrape endpoint serves the registry, pprof
// appears only when opted in, and stop() joins the serving goroutine.
func TestStartMetricsServer(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test_total", "probe").Inc()

	addr, stop, err := startMetricsServer(reg, "127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, perr := obs.ParseText(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || perr != nil {
		t.Fatalf("GET /metrics: %d, parse %v", resp.StatusCode, perr)
	}
	if samples["test_total"] != 1 {
		t.Fatalf("registry not served: %v", samples)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without -pprof: %d", resp.StatusCode)
	}
	stop()

	addr, stop, err = startMetricsServer(reg, "127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline with -pprof: %d", resp.StatusCode)
	}
}

// TestLeadSingleRankMetricsListen: a full single-rank run with
// -metrics-listen announces the scrape endpoint and still completes
// normally. The endpoint's content is covered by TestStartMetricsServer
// and the trace publish tests; the listener is torn down by the rank's
// deferred stop, so only the announcement is observable from out here.
func TestLeadSingleRankMetricsListen(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-lead", "-nodes", "1",
		"-profile", "road_usa", "-scale", "0.02",
		"-metrics-listen", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"metrics on http://", "forest:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "uk-2007") {
		t.Fatalf("list output: %q", out.String())
	}
}

func TestRunProfileVerify(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-profile", "road_usa", "-scale", "0.05", "-nodes", "3", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graph:", "forest:", "simulated:", "verified: exact"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunBSPAndSeq(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-profile", "road_usa", "-scale", "0.03", "-system", "bsp", "-nodes", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	// In-process runs measure their phases too.
	for _, want := range []string{"real:", "wall"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("bsp output missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-profile", "road_usa", "-scale", "0.03", "-system", "seq"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestRunTextInputAndTrace(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(text, []byte("0 1 4\n1 2 2\n2 0 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(dir, "t.jsonl")
	var out strings.Builder
	err := run([]string{"-text", text, "-nodes", "2", "-trace", traceFile, "-rankprofile", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "load balance") {
		t.Fatal("rank profile missing")
	}
	data, err := os.ReadFile(traceFile)
	if err != nil || !strings.Contains(string(data), `"kind":"rank"`) {
		t.Fatalf("trace file: %v %q", err, data)
	}
}

// TestRunJSON: -json emits exactly one record in the serve schema, with
// nothing else on the stream, and agrees with the text run.
func TestRunJSON(t *testing.T) {
	args := []string{"-profile", "road_usa", "-scale", "0.03", "-nodes", "3"}
	var jsonBuf strings.Builder
	if err := run(append(append([]string{}, args...), "-json", "-verify"), &jsonBuf); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		GraphDigest        string  `json:"graph_digest"`
		Vertices           int     `json:"vertices"`
		Edges              int     `json:"edges"`
		System             string  `json:"system"`
		OptionsFingerprint string  `json:"options_fingerprint"`
		ForestEdges        int     `json:"forest_edges"`
		Components         int     `json:"components"`
		TotalWeight        uint64  `json:"total_weight"`
		SimSeconds         float64 `json:"sim_seconds"`
		EdgeIDs            []int32 `json:"edge_ids"`
	}
	if err := json.Unmarshal([]byte(jsonBuf.String()), &rec); err != nil {
		t.Fatalf("-json output is not a single JSON record: %v\n%s", err, jsonBuf.String())
	}
	if !strings.HasPrefix(rec.GraphDigest, "sha256:") || rec.System != "mnd" ||
		!strings.Contains(rec.OptionsFingerprint, "nodes=3") {
		t.Fatalf("record: %+v", rec)
	}
	if rec.EdgeIDs != nil {
		t.Fatal("-json leaked edge ids (summary record must omit them)")
	}
	var text strings.Builder
	if err := run(args, &text); err != nil {
		t.Fatal(err)
	}
	wantForest := fmt.Sprintf("forest: %d edges, %d components, total weight %d",
		rec.ForestEdges, rec.Components, rec.TotalWeight)
	if !strings.Contains(text.String(), wantForest) {
		t.Fatalf("text run disagrees with -json record:\nwant %q in\n%s", wantForest, text.String())
	}
	// -json composes with the other systems and rejects -app.
	var seqBuf strings.Builder
	if err := run([]string{"-profile", "road_usa", "-scale", "0.03", "-system", "seq", "-json"}, &seqBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seqBuf.String(), `"system": "seq"`) {
		t.Fatalf("seq record: %s", seqBuf.String())
	}
	var out strings.Builder
	if err := run([]string{"-profile", "road_usa", "-app", "bfs", "-json"}, &out); err == nil {
		t.Fatal("-json with -app accepted")
	}
}

// TestLaunchLocalJSON: in multi-process mode rank 0's record is relayed
// as the sole output, so piped consumers see pure JSON.
func TestLaunchLocalJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-launch", "local:2", "-profile", "road_usa", "-scale", "0.03", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(out.String()), &rec); err != nil {
		t.Fatalf("launch -json output is not pure JSON: %v\n%s", err, out.String())
	}
	// The record is the cacheable answer: measured time stays out of it.
	if _, ok := rec["wall_seconds"]; ok {
		t.Fatalf("record carries measured wall_seconds: %s", out.String())
	}
	// Its fingerprint names the cluster the ranks formed, not the -nodes
	// default, which a rank that joins a cluster ignores.
	if fp, _ := rec["options_fingerprint"].(string); !strings.Contains(fp, ";nodes=2;") {
		t.Fatalf("options_fingerprint %q does not name the 2-rank cluster", fp)
	}
}

func TestRunGPUCray(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-profile", "arabic-2005", "-scale", "0.05", "-machine", "cray", "-gpu", "-gpus", "2", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-machine", "vax"}, &out); err == nil {
		t.Fatal("bad machine accepted")
	}
	if err := run([]string{"-system", "magic"}, &out); err == nil {
		t.Fatal("bad system accepted")
	}
	if err := run([]string{"-profile", "nope"}, &out); err == nil {
		t.Fatal("bad profile accepted")
	}
	if err := run([]string{"-input", filepath.Join(t.TempDir(), "missing")}, &out); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	// A stray argument is not a graph file: it would run the default profile.
	if err := run([]string{"-profile", "road_usa", "-scale", "0.02", "extra"}, &out); err == nil {
		t.Fatal("positional argument accepted")
	}
	for _, scale := range []string{"0", "-1"} {
		if err := run([]string{"-profile", "road_usa", "-scale", scale}, &out); err == nil {
			t.Fatalf("-scale %s accepted", scale)
		}
	}
	// Sequential runs record no trace, so there is nothing to dump.
	if err := run([]string{"-profile", "road_usa", "-scale", "0.02", "-system", "seq", "-metrics-dump"}, &out); err == nil {
		t.Fatal("-system seq -metrics-dump accepted")
	}
}

// TestRunSaveBinary: a non-.txt -save path gets the .mnd container, and
// loading it back gives the same graph.
func TestRunSaveBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "g.mnd")
	var out strings.Builder
	if err := run([]string{"-profile", "road_usa", "-scale", "0.05", "-save", bin, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var saved, loaded struct {
		GraphDigest string `json:"graph_digest"`
	}
	if err := json.Unmarshal([]byte(out.String()), &saved); err != nil {
		t.Fatalf("-save -json output is not a single JSON record: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(bin); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-input", bin, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out.String()), &loaded); err != nil {
		t.Fatal(err)
	}
	if saved.GraphDigest == "" || loaded.GraphDigest != saved.GraphDigest {
		t.Fatalf("graph digest %q after the .mnd round trip, want %q", loaded.GraphDigest, saved.GraphDigest)
	}
}

// TestRunSaveText: a .txt -save path gets the SNAP text format, and
// reading it back gives the same forest.
func TestRunSaveText(t *testing.T) {
	text := filepath.Join(t.TempDir(), "g.txt")
	var out strings.Builder
	if err := run([]string{"-profile", "road_usa", "-scale", "0.05", "-save", text, "-system", "seq"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wrote " + text + ": ", "avg degree", "forest:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# mndmst edge list") {
		t.Fatalf("text header: %q", data[:min(len(data), 40)])
	}
	g, err := mndmst.GenerateProfile("road_usa", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mndmst.LoadTextGraph(text, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mndmst.FindMSFSequential(g)
	got, err := mndmst.FindMSF(back, mndmst.Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.EdgeIDs, want.EdgeIDs) {
		t.Fatalf("forest of the .txt round trip differs: %d edges, want %d", len(got.EdgeIDs), len(want.EdgeIDs))
	}
}

func TestRunSaveErrors(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-profile", "nope", "-save", filepath.Join(dir, "g.mnd")}, &out); err == nil {
		t.Fatal("bad profile accepted")
	}
	unwritable := filepath.Join(dir, "missing-dir", "g.mnd")
	if err := run([]string{"-profile", "road_usa", "-scale", "0.02", "-save", unwritable}, &out); err == nil {
		t.Fatal("unwritable -save path accepted")
	}
}

// TestRunSystemAll: every configuration is checked and reported.
func TestRunSystemAll(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-profile", "road_usa", "-scale", "0.05", "-system", "all", "-verify"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "ok:"); got != 9 {
		t.Fatalf("%d ok: lines, want 9:\n%s", got, out.String())
	}
	for _, want := range []string{"verified: exact", "edge id for edge id"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunSystemAllText: -system all on a hand-written edge list.
func TestRunSystemAllText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 3\n3 0\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-text", path, "-system", "all"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "ok:"); got != 9 {
		t.Fatalf("%d ok: lines, want 9:\n%s", got, out.String())
	}
}

func TestRunSystemAllErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-profile", "nope", "-system", "all"}, &out); err == nil {
		t.Fatal("bad profile accepted")
	}
	if err := run([]string{"-input", filepath.Join(t.TempDir(), "missing"), "-system", "all"}, &out); err == nil {
		t.Fatal("missing input accepted")
	}
}

// TestSameForest: a forest with the reference's edge count and total
// weight but one different edge id does not match.
func TestSameForest(t *testing.T) {
	ref := &mndmst.Result{EdgeIDs: []int32{0, 2, 5}, TotalWeight: 30, Components: 1}
	if err := sameForest(ref, &mndmst.Result{EdgeIDs: []int32{0, 2, 5}, TotalWeight: 30, Components: 1}); err != nil {
		t.Fatalf("identical forest rejected: %v", err)
	}
	swapped := &mndmst.Result{EdgeIDs: []int32{0, 3, 5}, TotalWeight: 30, Components: 1}
	if err := sameForest(ref, swapped); err == nil {
		t.Fatal("forest with one different edge id accepted")
	}
	if err := sameForest(ref, &mndmst.Result{EdgeIDs: []int32{0, 2}, TotalWeight: 30}); err == nil {
		t.Fatal("forest missing an edge accepted")
	}
}

func TestRunApps(t *testing.T) {
	for _, app := range []string{"bfs", "sssp", "pagerank", "coloring", "cc"} {
		var out strings.Builder
		err := run([]string{"-profile", "road_usa", "-scale", "0.03", "-nodes", "3", "-app", app}, &out)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if !strings.Contains(out.String(), "simulated") {
			t.Fatalf("%s: output %q", app, out.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-app", "magic"}, &out); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestRunMetricsDump: -metrics-dump writes a parseable Prometheus
// exposition of the run's trace to stderr, with the rank count and phase
// gauges intact. Stderr is swapped for a pipe around the run so the dump
// can be captured without touching the normal stdout report.
func TestRunMetricsDump(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	os.Stderr = w
	var out strings.Builder
	runErr := run([]string{"-profile", "road_usa", "-scale", "0.02", "-nodes", "2", "-metrics-dump"}, &out)
	os.Stderr = oldStderr
	w.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	samples, perr := obs.ParseText(r)
	r.Close()
	if perr != nil {
		t.Fatalf("dump does not parse: %v", perr)
	}
	if got := samples["mndmst_run_ranks"]; got != 2 {
		t.Fatalf("mndmst_run_ranks = %g, want 2 (-nodes 2)", got)
	}
	if samples["mndmst_run_sim_seconds"] <= 0 {
		t.Fatalf("mndmst_run_sim_seconds missing or zero: %v", samples)
	}
	found := false
	for k := range samples {
		if strings.HasPrefix(k, "mndmst_run_phase_compute_seconds{phase=") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no per-phase gauges in dump: %v", samples)
	}
	if !strings.Contains(out.String(), "forest:") {
		t.Fatalf("normal report missing from stdout:\n%s", out.String())
	}
}
