package merge

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mndmst/internal/cluster"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
	"mndmst/internal/transport"
	"mndmst/internal/wire"
)

// --- round-robin pairing ---

// TestRRPartnerProperties checks the circle-method schedule invariants for
// every participant count the merge phase can see: each round is a perfect
// matching (symmetric, no self-pairs, at most one bye), and every unordered
// pair meets in exactly one round.
func TestRRPartnerProperties(t *testing.T) {
	for n := 1; n <= 12; n++ {
		met := make(map[[2]int]int)
		for round := 0; round < rrRounds(n); round++ {
			byes := 0
			for idx := 0; idx < n; idx++ {
				p := rrPartner(n, round, idx)
				if p == idx {
					t.Fatalf("n=%d round=%d: idx %d paired with itself", n, round, idx)
				}
				if p < 0 {
					byes++
					continue
				}
				if p >= n {
					t.Fatalf("n=%d round=%d idx=%d: partner %d out of range", n, round, idx, p)
				}
				if back := rrPartner(n, round, p); back != idx {
					t.Fatalf("n=%d round=%d: %d→%d but %d→%d", n, round, idx, p, p, back)
				}
				if idx < p {
					met[[2]int{idx, p}]++
				}
			}
			wantByes := n % 2
			if n == 1 {
				wantByes = 1
			}
			if byes != wantByes {
				t.Fatalf("n=%d round=%d: %d byes, want %d", n, round, byes, wantByes)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if met[[2]int{i, j}] != 1 {
					t.Fatalf("n=%d: pair (%d,%d) met %d times", n, i, j, met[[2]int{i, j}])
				}
			}
		}
	}
}

// --- ring segment exchange ---

func TestExchangeSegmentsRing(t *testing.T) {
	const p = 3
	c := cluster.New(p, testComm())
	_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		sendTo, recvFrom := (r.ID()+1)%p, (r.ID()+p-1)%p
		out := Payload{
			Comps: []int32{int32(100 + r.ID())},
			Edges: []graph.Edge{{U: int32(r.ID()), V: int32(sendTo), W: graph.MakeWeight(uint16(10*r.ID()), int32(r.ID()))}},
		}
		in, err := ExchangeSegments(r, sendTo, recvFrom, out, 8, Payload{})
		if err != nil {
			return err
		}
		if len(in.Comps) != 1 || in.Comps[0] != int32(100+recvFrom) {
			return fmt.Errorf("rank %d: comps %v", r.ID(), in.Comps)
		}
		if len(in.Edges) != 1 || graph.EdgeID(in.Edges[0].W) != int32(recvFrom) || in.Edges[0].W != graph.MakeWeight(uint16(10*recvFrom), int32(recvFrom)) {
			return fmt.Errorf("rank %d: edges %+v", r.ID(), in.Edges)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeSegmentsAsymmetricSizes checks the interleaved loop when the
// two directions carry very different chunk counts (nSend ≠ nRecv).
func TestExchangeSegmentsAsymmetricSizes(t *testing.T) {
	const p = 2
	c := cluster.New(p, testComm())
	_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		var out Payload
		if r.ID() == 0 {
			out.Comps = make([]int32, 5000) // many chunks at chunk=64
			for i := range out.Comps {
				out.Comps[i] = int32(i)
			}
		} else {
			out.Comps = []int32{7} // single chunk
		}
		peer := 1 - r.ID()
		in, err := ExchangeSegments(r, peer, peer, out, 64, Payload{})
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			if len(in.Comps) != 1 || in.Comps[0] != 7 {
				return fmt.Errorf("rank 0: comps %v", in.Comps)
			}
		} else {
			if len(in.Comps) != 5000 || in.Comps[4999] != 4999 {
				return fmt.Errorf("rank 1: %d comps", len(in.Comps))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- chunked protocol edge cases over both backends ---

// runChunkedCase executes fn as a 2-rank program over the in-process
// backend and again over real loopback TCP, failing on any rank error.
func runChunkedCase(t *testing.T, name string, fn func(r *cluster.Rank) error) {
	t.Helper()
	if _, err := cluster.New(2, testComm()).Run(context.Background(), fn); err != nil {
		t.Fatalf("%s over Mem: %v", name, err)
	}
	run := launchTCPRanks(t, 2, transport.TCPConfig{}, fn)
	if !run.wait(30 * time.Second) {
		t.Fatalf("%s over TCP hung", name)
	}
	for r, err := range run.errs {
		if err != nil {
			t.Fatalf("%s over TCP: rank %d: %v", name, r, err)
		}
	}
}

// TestChunkedEdgeCasesBothBackends drives the chunked protocol through its
// boundary conditions — empty payload, chunk=1, chunk larger than the
// payload, the chunk<=0 default path, and a sender/receiver chunk-size
// mismatch — over both the in-process and the TCP backend.
func TestChunkedEdgeCasesBothBackends(t *testing.T) {
	const tag = tagForest // any named protocol tag works for raw transfers
	mkPayload := func(n int) []byte {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*31 + 1)
		}
		return data
	}
	check := func(got []byte, n int) error {
		if len(got) != n {
			return fmt.Errorf("got %d bytes, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != byte(i*31+1) {
				return fmt.Errorf("byte %d corrupted", i)
			}
		}
		return nil
	}
	cases := []struct {
		name           string
		payload, chunk int
	}{
		{"empty-payload", 0, 8},
		{"chunk-one", 500, 1},
		{"chunk-exceeds-payload", 37, 4096},
		{"chunk-default-path", 300, 0},
		{"chunk-negative-default-path", 300, -5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runChunkedCase(t, tc.name, func(r *cluster.Rank) error {
				if r.ID() == 0 {
					sendChunked(r, 1, tag, mkPayload(tc.payload), tc.chunk)
					return nil
				}
				got, err := recvChunked(r, 0, tag)
				if err != nil {
					return err
				}
				return check(got, tc.payload)
			})
		})
	}

	// Tiny sender chunks: reassembly is driven by the sender's
	// chunk-count header, as the receiver takes no chunk size.
	t.Run("chunk-size-mismatch", func(t *testing.T) {
		runChunkedCase(t, "chunk-size-mismatch", func(r *cluster.Rank) error {
			want := Payload{Comps: []int32{1, 2, 3, 4, 5}, Edges: []graph.Edge{{U: 1, V: 2, W: graph.MakeWeight(9, 4)}}}
			if r.ID() == 0 {
				SendToLeader(r, 1, want, 8) // tiny sender chunks
				return nil
			}
			got, err := RecvMembers(r, []int{0, 1}, Payload{})
			if err != nil {
				return err
			}
			if len(got.Comps) != 5 || got.Comps[4] != 5 || len(got.Edges) != 1 || got.Edges[0] != want.Edges[0] {
				return fmt.Errorf("mismatch case payload %+v", got)
			}
			return nil
		})
	})

	// Full-duplex mismatch: the two directions of one exchange use
	// different chunk sizes (each side's header describes its own stream).
	t.Run("duplex-chunk-mismatch", func(t *testing.T) {
		runChunkedCase(t, "duplex-chunk-mismatch", func(r *cluster.Rank) error {
			chunk := 16
			if r.ID() == 1 {
				chunk = 1000
			}
			peer := 1 - r.ID()
			got, err := exchangeChunked(r, peer, peer, tag, mkPayload(700), chunk)
			if err != nil {
				return err
			}
			return check(got, 700)
		})
	})
}

// --- exact-size encoders and the decode-into merge ---

// decodePayload parses one component transfer into fresh slices: the
// reference appendPayloads is checked against.
func decodePayload(buf []byte) (Payload, error) {
	comps, buf, err := wire.TakeInt32s(buf)
	if err != nil {
		return Payload{}, err
	}
	edges, _, err := wire.TakeEdgesInto(nil, buf)
	if err != nil {
		return Payload{}, err
	}
	return Payload{Comps: comps, Edges: edges}, nil
}

// TestEncodersSizeExactly checks that encodePayload and encodeDeltas fill
// their buffers exactly and write the bytes of the length-prefixed
// AppendInt32s/AppendEdges encoding. It then merges member buffers the
// way the leader does, decoding into the leader's own slices, and checks
// the result and every truncation error against decodePayload and append.
func TestEncodersSizeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t, 29)))
	payload := func(nc, ne int) Payload {
		p := Payload{Comps: make([]int32, nc), Edges: make([]graph.Edge, ne)}
		for i := range p.Comps {
			p.Comps[i] = rng.Int31()
		}
		for i := range p.Edges {
			p.Edges[i] = graph.Edge{U: rng.Int31(), V: -rng.Int31(), W: graph.MakeWeight(uint16(rng.Uint64()), rng.Int31())}
		}
		return p
	}
	for _, n := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {3, 7}, {100, 1000}} {
		p := payload(n[0], n[1])
		got := encodePayload(p)
		want := wire.AppendEdges(wire.AppendInt32s(nil, p.Comps), p.Edges)
		if len(got) != cap(got) || !slices.Equal(got, want) {
			t.Fatalf("encodePayload(%d comps, %d edges): len %d cap %d, equal to reference: %v",
				n[0], n[1], len(got), cap(got), slices.Equal(got, want))
		}
		ds := make([]Delta, n[1])
		olds, news := make([]int32, len(ds)), make([]int32, len(ds))
		for i := range ds {
			ds[i] = Delta{Old: rng.Int31(), New: -rng.Int31()}
			olds[i], news[i] = ds[i].Old, ds[i].New
		}
		got = encodeDeltas(ds)
		want = wire.AppendInt32s(wire.AppendInt32s(nil, olds), news)
		if len(got) != cap(got) || !slices.Equal(got, want) {
			t.Fatalf("encodeDeltas(%d): len %d cap %d, equal to reference: %v", len(ds), len(got), cap(got), slices.Equal(got, want))
		}
		if back, err := appendDeltas(nil, got); err != nil || !slices.Equal(back, ds) {
			t.Fatalf("appendDeltas(nil, encodeDeltas(%d)): %v", len(ds), err)
		}
		// Every cut of the buffer, and a count one off in either header,
		// is malformed, and dst comes back as it was.
		dst := []Delta{{Old: 1, New: 2}}
		for cut := range len(got) {
			if back, err := appendDeltas(dst, got[:cut]); err == nil || !slices.Equal(back, dst) {
				t.Fatalf("appendDeltas of %d of %d bytes: %v, %v", cut, len(got), back, err)
			}
		}
		for _, at := range []int{0, 8 + 4*len(ds)} {
			bad := slices.Clone(got)
			bad[at]++
			if back, err := appendDeltas(dst, bad); err == nil || !slices.Equal(back, dst) {
				t.Fatalf("appendDeltas with count at byte %d off by one: %v, %v", at, back, err)
			}
		}
	}

	// reference merges bufs into a copy of leader with decodePayload and
	// append, as the leader did before it decoded in place.
	reference := func(leader Payload, bufs [][]byte) (Payload, error) {
		out := Payload{Comps: slices.Clone(leader.Comps), Edges: slices.Clone(leader.Edges)}
		for _, buf := range bufs {
			p, err := decodePayload(buf)
			if err != nil {
				return Payload{}, err
			}
			out.Comps = append(out.Comps, p.Comps...)
			out.Edges = append(out.Edges, p.Edges...)
		}
		return out, nil
	}
	for trial := range 50 {
		leader := payload(rng.Intn(20), rng.Intn(60))
		bufs := make([][]byte, rng.Intn(5))
		for i := range bufs {
			bufs[i] = encodePayload(payload(rng.Intn(20), rng.Intn(60)))
		}
		want, err := reference(leader, bufs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendPayloads(Payload{Comps: slices.Clone(leader.Comps), Edges: slices.Clone(leader.Edges)}, bufs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(got.Comps, want.Comps) || !slices.Equal(got.Edges, want.Edges) {
			t.Fatalf("trial %d: merged payload differs from decodePayload + append", trial)
		}
		if len(bufs) > 0 && (cap(got.Comps) != len(got.Comps) || cap(got.Edges) != len(got.Edges)) {
			t.Fatalf("trial %d: merge grew to %d/%d comps, %d/%d edges; want exact",
				trial, len(got.Comps), cap(got.Comps), len(got.Edges), cap(got.Edges))
		}
		if len(bufs) == 0 {
			continue
		}
		// Cut one member's buffer short at every length: both decoders
		// must fail, with the same error.
		bad := rng.Intn(len(bufs))
		whole := bufs[bad]
		for cut := range len(whole) {
			bufs[bad] = whole[:cut]
			_, wantErr := reference(leader, bufs)
			_, gotErr := appendPayloads(Payload{Comps: slices.Clone(leader.Comps), Edges: slices.Clone(leader.Edges)}, bufs)
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d: member %d cut to %d of %d bytes: error %v, want %v", trial, bad, cut, len(whole), gotErr, wantErr)
			}
		}
		bufs[bad] = whole
	}
}
