package merge

import (
	"bytes"
	"context"
	"encoding/binary"
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

// TestExchangeSegmentsDecodesIntoTail pins the ring step's reuse of the
// kept list's spare tail: when into has room for the arriving segment, the
// segment is decoded into it, the result keeps into's backing arrays, and
// the step allocates exactly two fewer objects than when into is full —
// the component and edge lists it no longer grows. A one-rank ring, whose
// only member sends its segment to itself, keeps every allocation on one
// goroutine.
func TestExchangeSegmentsDecodesIntoTail(t *testing.T) {
	_, err := cluster.New(1, testComm()).Run(context.Background(), func(r *cluster.Rank) error {
		seg := Payload{Comps: []int32{7, 8, 9}, Edges: make([]graph.Edge, 300)}
		for i := range seg.Edges {
			seg.Edges[i] = graph.Edge{U: 7, V: int32(100 + i), W: graph.MakeWeight(uint16(i), int32(10+i))}
		}
		full := Payload{Comps: []int32{1, 2}, Edges: []graph.Edge{{U: 1, V: 2, W: graph.MakeWeight(5, 0)}}}
		roomy := Payload{
			Comps: append(make([]int32, 0, 8), full.Comps...),
			Edges: append(make([]graph.Edge, 0, 400), full.Edges...),
		}
		got, err := ExchangeSegments(r, 0, 0, seg, 1<<10, roomy)
		if err != nil {
			return err
		}
		if !slices.Equal(got.Comps, slices.Concat(full.Comps, seg.Comps)) || !slices.Equal(got.Edges, slices.Concat(full.Edges, seg.Edges)) {
			return fmt.Errorf("decoded %+v", got)
		}
		if &got.Edges[0] != &roomy.Edges[:1][0] || cap(got.Edges) != cap(roomy.Edges) ||
			&got.Comps[0] != &roomy.Comps[:1][0] || cap(got.Comps) != cap(roomy.Comps) {
			return fmt.Errorf("the segment was not decoded into the spare tail")
		}
		step := func(into Payload) func() {
			return func() {
				if _, err := ExchangeSegments(r, 0, 0, seg, 1<<10, into); err != nil {
					panic(err)
				}
			}
		}
		withRoom, withoutRoom := testing.AllocsPerRun(50, step(roomy)), testing.AllocsPerRun(50, step(full))
		if withoutRoom-withRoom != 2 {
			return fmt.Errorf("%v allocations with room, %v without; want two fewer", withRoom, withoutRoom)
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
				return check(joined(got), tc.payload)
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
			return check(joined(got), 700)
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

// chunked splits buf into chunks as a sender would, their sizes taken in
// turn from sizes (at least one, each at least 1), and collects them as
// recvChunked does.
func chunked(buf []byte, sizes ...int) transfer {
	var t transfer
	for i, lo := 0, 0; lo < len(buf); i++ {
		hi := min(lo+sizes[i%len(sizes)], len(buf))
		if err := t.add(buf[lo:hi]); err != nil {
			panic(err)
		}
		lo = hi
	}
	return t
}

// joined returns the bytes of t in one slice.
func joined(t transfer) []byte {
	return slices.Concat(append([][]byte{t.first}, t.more...)...)
}

// chunkedAll splits every buffer of bufs as chunked does.
func chunkedAll(bufs [][]byte, sizes ...int) []transfer {
	ts := make([]transfer, len(bufs))
	for i, buf := range bufs {
		ts[i] = chunked(buf, sizes...)
	}
	return ts
}

// TestEncodersSizeExactly checks that encodePayload and encodeDeltas fill
// their buffers exactly and write the bytes of the length-prefixed
// AppendInt32s/AppendEdges encoding. It then merges member buffers, cut
// into small chunks, the way the leader does, decoding from the chunks
// into the leader's own slices, and checks the result and every
// truncation error against decodePayload and append on the whole buffers.
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
		chunk := 1 + rng.Intn(12)
		if back, err := appendDeltas(nil, chunked(got, chunk)); err != nil || !slices.Equal(back, ds) {
			t.Fatalf("appendDeltas(nil, encodeDeltas(%d)): %v", len(ds), err)
		}
		// Every cut of the buffer, and a count one off in either header,
		// is malformed, and dst comes back as it was.
		dst := []Delta{{Old: 1, New: 2}}
		for cut := range len(got) {
			if back, err := appendDeltas(dst, chunked(got[:cut], chunk)); err == nil || !slices.Equal(back, dst) {
				t.Fatalf("appendDeltas of %d of %d bytes: %v, %v", cut, len(got), back, err)
			}
		}
		for _, at := range []int{0, 8 + 4*len(ds)} {
			bad := slices.Clone(got)
			bad[at]++
			if back, err := appendDeltas(dst, chunked(bad, chunk)); err == nil || !slices.Equal(back, dst) {
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
		chunk := 1 + rng.Intn(40)
		// slices.Clone may round the capacity up; clip it, so that the
		// merge must grow whenever a member sends anything.
		got, err := appendPayloads(Payload{Comps: slices.Clip(slices.Clone(leader.Comps)), Edges: slices.Clip(slices.Clone(leader.Edges))}, chunkedAll(bufs, chunk))
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
			_, gotErr := appendPayloads(Payload{Comps: slices.Clone(leader.Comps), Edges: slices.Clone(leader.Edges)}, chunkedAll(bufs, chunk))
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d: member %d cut to %d of %d bytes: error %v, want %v", trial, bad, cut, len(whole), gotErr, wantErr)
			}
		}
		bufs[bad] = whole
	}
}

// FuzzChunkedDecode checks the decoders of every chunked receive, which
// read their transfer's chunks in place, against the contiguous decode of
// the joined bytes. From data it builds a payload, a delta list and a
// forest id list, encodes each and, by damage, leaves the encoding whole,
// cuts it short, extends it, or flips bit at%64 of one count header. It
// splits the result at chunk sizes 1 + sizes[i], cycling (1-byte chunks
// throughout when sizes is empty), and decodes the chunks. The chunked and
// contiguous decodes must agree, and neither may panic. A whole encoding
// must decode to what was encoded. A cut, an extension, and a count off by
// one or past every byte of the payload must fail. data itself, as a
// payload, a delta list and a forest, goes through the same comparison.
func FuzzChunkedDecode(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef0123"), []byte{0}, uint8(0), uint16(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123"), []byte{2, 6, 15}, uint8(1), uint16(21))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123"), []byte{}, uint8(2), uint16(3))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123"), []byte{4}, uint8(3), uint16(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123"), []byte{7}, uint8(7), uint16(62))
	f.Add([]byte{}, []byte{}, uint8(3), uint16(1))

	f.Fuzz(func(t *testing.T, data, sizes []byte, damage uint8, at uint16) {
		chunk := []int{1}
		if len(sizes) > 0 {
			chunk = make([]int, len(sizes))
			for i, b := range sizes {
				chunk[i] = 1 + int(b)
			}
		}
		ids := make([]int32, len(data)/4)
		for i := range ids {
			ids[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		p := Payload{Comps: ids[:len(ids)/2], Edges: make([]graph.Edge, len(data)/graph.EdgeBytes)}
		for i := range p.Edges {
			p.Edges[i] = graph.DecodeEdge(data[graph.EdgeBytes*i:])
		}
		ds := make([]Delta, len(ids)/2)
		for i := range ds {
			ds[i] = Delta{Old: ids[i], New: ids[len(ids)-1-i]}
		}

		// Every decoder returns its result re-encoded, or its failure.
		type decoder struct {
			name       string
			enc        []byte
			counts     []int // the byte offsets of the encoding's count headers
			chunked    func(transfer) ([]byte, error)
			contiguous func([]byte) ([]byte, error)
		}
		decoders := []decoder{
			{
				name: "payload", enc: encodePayload(p), counts: []int{0, 8 + 4*len(p.Comps)},
				chunked: func(tr transfer) ([]byte, error) {
					got, err := appendPayloads(Payload{}, []transfer{tr})
					return encodePayload(got), err
				},
				contiguous: func(buf []byte) ([]byte, error) {
					comps, rest, err := wire.TakeInt32s(buf)
					if err != nil {
						return nil, err
					}
					edges, rest, err := wire.TakeEdgesInto(nil, rest)
					if err == nil && len(rest) > 0 {
						err = fmt.Errorf("%d trailing bytes", len(rest))
					}
					return encodePayload(Payload{Comps: comps, Edges: edges}), err
				},
			},
			{
				name: "deltas", enc: encodeDeltas(ds), counts: []int{0, 8 + 4*len(ds)},
				chunked: func(tr transfer) ([]byte, error) {
					got, err := appendDeltas(nil, tr)
					return encodeDeltas(got), err
				},
				contiguous: func(buf []byte) ([]byte, error) {
					olds, rest, err := wire.TakeInt32s(buf)
					if err != nil {
						return nil, err
					}
					news, rest, err := wire.TakeInt32s(rest)
					if err != nil {
						return nil, err
					}
					if len(olds) != len(news) || len(rest) > 0 {
						return nil, fmt.Errorf("%d olds, %d news, %d trailing bytes", len(olds), len(news), len(rest))
					}
					return wire.AppendInt32s(wire.AppendInt32s(nil, olds), news), nil
				},
			},
			{
				name: "forest", enc: wire.AppendInt32s(nil, ids), counts: []int{0},
				chunked: func(tr transfer) ([]byte, error) {
					got, err := appendForest(nil, tr)
					return wire.AppendInt32s(nil, got), err
				},
				contiguous: func(buf []byte) ([]byte, error) {
					got, rest, err := wire.TakeInt32s(buf)
					if err == nil && len(rest) > 0 {
						err = fmt.Errorf("%d trailing bytes", len(rest))
					}
					return wire.AppendInt32s(nil, got), err
				},
			},
		}
		for _, d := range decoders {
			// agree decodes buf both ways; they must both fail, or both
			// succeed with the same result.
			agree := func(buf []byte) ([]byte, error) {
				got, gotErr := d.chunked(chunked(buf, chunk...))
				want, wantErr := d.contiguous(buf)
				if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !bytes.Equal(got, want) {
					t.Fatalf("%s of %d bytes in chunks of %v: chunked %x, %v; contiguous %x, %v", d.name, len(buf), chunk, got, gotErr, want, wantErr)
				}
				return got, gotErr
			}
			agree(data)

			buf, mustFail := slices.Clone(d.enc), true
			switch damage % 4 {
			case 0:
				mustFail = false
			case 1:
				buf = buf[:int(at)%len(buf)]
			case 2:
				buf = append(buf, data[:min(len(data), int(at)%20)]...)
				buf = append(buf, 0)
			case 3:
				off, bit := d.counts[int(at)/64%len(d.counts)], at%64
				binary.LittleEndian.PutUint64(buf[off:], binary.LittleEndian.Uint64(buf[off:])^1<<bit)
				mustFail = bit == 0 || bit >= 40
			}
			got, err := agree(buf)
			switch {
			case damage%4 == 0 && (err != nil || !bytes.Equal(got, d.enc)):
				t.Fatalf("%s: decoded %x, %v; want %x", d.name, got, err, d.enc)
			case mustFail && err == nil:
				t.Fatalf("%s: damage %d at %d accepted", d.name, damage%4, at)
			}
		}
	})
}
