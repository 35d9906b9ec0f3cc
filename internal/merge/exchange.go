package merge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// Message tags used by the merge protocol. Each logical stream uses one
// tag; chunking relies on the transport's per-pair FIFO ordering.
const (
	tagDeltas   = 100
	tagSegment  = 101
	tagToLeader = 102
	tagForest   = 103
)

// DefaultChunk is the default payload chunk size for the multi-phase
// exchanges ("the processors communicate these boundary vertices in
// multiple phases", §3.1). Small enough to exercise multi-phase behaviour
// at reproduction scale.
const DefaultChunk = 16 << 10

// DefaultMaxPayload is the default bound on one reassembled chunked
// payload, matching the wire layer's per-frame ceiling: no single delta,
// segment, or forest transfer may exceed it.
const DefaultMaxPayload = int64(1) << 30

// ErrPayloadBound reports a chunked transfer whose header or cumulative
// size exceeds the configured bound. The bound is what turns a corrupt or
// hostile chunk-count header (say n = 2^60) into an immediate protocol
// error instead of an unbounded receive-and-allocate loop.
var ErrPayloadBound = errors.New("merge: chunked payload exceeds bound")

// maxPayload holds the configured payload bound; zero means default.
var maxPayload atomic.Int64

// MaxPayload reports the current bound on one reassembled chunked payload.
func MaxPayload() int64 {
	if v := maxPayload.Load(); v > 0 {
		return v
	}
	return DefaultMaxPayload
}

// SetMaxPayload sets the bound on one reassembled chunked payload;
// non-positive restores DefaultMaxPayload. It applies process-wide and is
// safe to call concurrently with running exchanges (each transfer reads the
// bound as it validates).
func SetMaxPayload(n int64) { //lint:testonly test hook for the payload bound
	if n < 0 {
		n = 0
	}
	maxPayload.Store(n)
}

// chunkSpan reports the byte range of chunk i of a payload split into
// chunk-sized pieces.
func chunkSpan(payloadLen, chunk, i int) (lo, hi int) {
	lo = i * chunk
	hi = lo + chunk
	if hi > payloadLen {
		hi = payloadLen
	}
	return lo, hi
}

// numChunks reports how many chunks sendChunked splits a payload into.
func numChunks(payloadLen, chunk int) int {
	return (payloadLen + chunk - 1) / chunk
}

// sendChunked transmits payload to dst in chunks of at most chunk bytes,
// preceded by a header carrying the chunk count. The caller returns once
// the chunks sit in the transport's bounded outbound queue, so a rank that
// still owes the cluster receives is never stuck inside a kernel write.
func sendChunked(r *cluster.Rank, dst, tag int, payload []byte, chunk int) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	n := numChunks(len(payload), chunk)
	r.Send(dst, tag, wire.AppendUint64(nil, uint64(n)))
	for i := 0; i < n; i++ {
		lo, hi := chunkSpan(len(payload), chunk, i)
		r.Send(dst, tag, payload[lo:hi])
	}
}

// parseChunkHeader validates a chunk-count header from src against the
// payload bound. Every chunk of a non-empty transfer carries at least one
// byte, so a count above MaxPayload() can never belong to a legal payload —
// rejecting it here stops a corrupt header before the first allocation.
func parseChunkHeader(src int, head []byte) (uint64, error) {
	n, _, err := wire.TakeUint64(head)
	if err != nil {
		return 0, fmt.Errorf("merge: chunk header from rank %d: %w", src, err)
	}
	if bound := MaxPayload(); n > uint64(bound) {
		return 0, fmt.Errorf("%w: chunk count %d from rank %d implies > %d bytes", ErrPayloadBound, n, src, bound)
	}
	return n, nil
}

// transfer is one inbound chunked payload, its chunks kept as received:
// the decoders read them in order through a wire.Reader, and nothing
// copies them together. The first chunk is held apart, so a one-chunk
// transfer allocates no list. The list grows as chunks arrive, never
// from the header's count.
type transfer struct {
	src   int
	first []byte
	more  [][]byte
	total int64
}

// add appends one received chunk, enforcing the payload bound
// cumulatively, so a sender whose header lied small but whose chunks run
// large is still cut off at the bound. Empty chunks are protocol errors:
// the sender never produces them (a zero-length payload has zero chunks),
// and admitting them would let a hostile count spin the receive loop
// without tripping the byte bound. Every receiver only reads the chunks.
func (t *transfer) add(chunk []byte) error {
	if len(chunk) == 0 {
		return fmt.Errorf("merge: empty chunk from rank %d (protocol error)", t.src)
	}
	t.total += int64(len(chunk))
	if bound := MaxPayload(); t.total > bound {
		return fmt.Errorf("%w: %d bytes from rank %d, bound %d", ErrPayloadBound, t.total, t.src, bound)
	}
	if t.first == nil {
		t.first = chunk
	} else {
		t.more = append(t.more, chunk)
	}
	return nil
}

// reader returns a reader over the transfer's bytes.
func (t *transfer) reader() wire.Reader { return wire.NewReader(t.first, t.more) }

// recvChunked receives a payload sent by sendChunked, validating the chunk
// count and the cumulative size against MaxPayload.
func recvChunked(r *cluster.Rank, src, tag int) (transfer, error) {
	n, err := parseChunkHeader(src, r.Recv(src, tag))
	if err != nil {
		return transfer{}, err
	}
	t := transfer{src: src}
	for i := uint64(0); i < n; i++ {
		if err := t.add(r.Recv(src, tag)); err != nil {
			return transfer{}, err
		}
	}
	return t, nil
}

// exchangeChunked runs one full-duplex chunked transfer: payload goes to
// sendTo while a payload arrives from recvFrom, with sends and receives
// interleaved chunk by chunk. The interleaving is the deadlock-freedom
// argument: at most one chunk (plus the header) is enqueued ahead of each
// receive, so the in-flight bytes per link stay bounded by roughly one
// chunk regardless of payload size — no schedule of bounded send queues,
// socket buffers, and receive windows can wedge, because every rank
// drains its inbound stream at the same rate it fills its outbound one.
// For a pairwise exchange sendTo == recvFrom; for a ring step they differ.
func exchangeChunked(r *cluster.Rank, sendTo, recvFrom, tag int, payload []byte, chunk int) (transfer, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	nSend := numChunks(len(payload), chunk)
	r.Send(sendTo, tag, wire.AppendUint64(nil, uint64(nSend)))
	nRecv, err := parseChunkHeader(recvFrom, r.Recv(recvFrom, tag))
	if err != nil {
		return transfer{}, err
	}
	t := transfer{src: recvFrom}
	for i := 0; i < nSend || uint64(i) < nRecv; i++ {
		if i < nSend {
			lo, hi := chunkSpan(len(payload), chunk, i)
			r.Send(sendTo, tag, payload[lo:hi])
		}
		if uint64(i) < nRecv {
			if err := t.add(r.Recv(recvFrom, tag)); err != nil {
				return transfer{}, err
			}
		}
	}
	return t, nil
}

// rrRounds reports the number of rounds of the round-robin schedule over n
// participants: n-1 for even n, n for odd n (each participant sits out one
// round).
func rrRounds(n int) int {
	if n%2 == 0 {
		return n - 1
	}
	return n
}

// rrPartner reports who participant idx exchanges with in the given round
// of the circle-method round-robin tournament over n participants, or -1
// if idx sits the round out (odd n only). Every unordered pair {i, j}
// meets in exactly one of the rrRounds(n) rounds, each round is a perfect
// matching, and both sides compute the same pairing independently — which
// is what lets ExchangeDeltas replace "send to everyone, then receive from
// everyone" with a schedule where each rank talks to exactly one peer at a
// time.
func rrPartner(n, round, idx int) int {
	if n < 2 {
		return -1
	}
	m := n
	if m%2 == 1 {
		m++ // add a virtual participant; pairing with it is a bye
	}
	q := m - 1 // modulus and fixed participant
	var p int
	switch {
	case idx == q:
		// The fixed participant meets whoever solves 2j ≡ round (mod q);
		// (q+1)/2 is 2's inverse modulo the odd q.
		p = round * ((q + 1) / 2) % q
	default:
		p = ((round-idx)%q + q) % q
		if p == idx {
			p = q
		}
	}
	if p >= n {
		return -1 // partner is the virtual participant: bye
	}
	return p
}

// encodeDeltas serializes parent deltas as two length-prefixed int32
// arrays, the old ids then the new ones, written straight into one
// exactly-sized buffer.
func encodeDeltas(ds []Delta) []byte {
	n := len(ds)
	buf := make([]byte, 16+8*n)
	news := buf[8+4*n:]
	binary.LittleEndian.PutUint64(buf, uint64(n))
	binary.LittleEndian.PutUint64(news, uint64(n))
	for i, d := range ds {
		binary.LittleEndian.PutUint32(buf[8+4*i:], uint32(d.Old))
		binary.LittleEndian.PutUint32(news[8+4*i:], uint32(d.New))
	}
	return buf
}

// appendDeltas decodes the parent deltas of t and appends them to dst.
// encodeDeltas writes n deltas in 16 + 8n bytes, so the length gives n,
// and both counts must match it.
func appendDeltas(dst []Delta, t transfer) ([]Delta, error) {
	olds := t.reader()
	size := olds.Len()
	n := size/8 - 2
	if n < 0 || size%8 != 0 || olds.Uint64() != uint64(n) {
		return dst, fmt.Errorf("merge: malformed delta payload of %d bytes", size)
	}
	news := olds
	news.Skip(4 * n)
	if news.Uint64() != uint64(n) {
		return dst, fmt.Errorf("merge: malformed delta payload of %d bytes", size)
	}
	for range n {
		dst = append(dst, Delta{Old: int32(olds.Uint32()), New: int32(news.Uint32())})
	}
	return dst, nil
}

// ExchangeDeltas performs the ghost parent-id exchange of §3.3 among the
// active ranks: every active rank exchanges its local parent deltas with
// every other active rank in multiple chunked phases. The calling rank must
// appear in active; inactive ranks must not call. Returns the remote deltas
// concatenated in ascending sender order, so the combined relabeling is
// deterministic.
//
// The schedule is a round-robin tournament of pairwise full-duplex
// exchanges (rrPartner), each interleaving its sends and receives chunk by
// chunk. No rank ever owes a receive while sitting in a blocking send, so
// the exchange cannot deadlock over bounded buffers — unlike the previous
// send-all-then-receive-all order, which wedged as soon as the per-pair
// payload outgrew the end-to-end buffering.
func ExchangeDeltas(r *cluster.Rank, active []int, local []Delta, chunk int) ([]Delta, cost.Work, error) {
	var w cost.Work
	payload := encodeDeltas(local)
	me := -1
	for i, id := range active {
		if id == r.ID() {
			me = i
			break
		}
	}
	if me < 0 {
		return nil, w, fmt.Errorf("merge: rank %d not in active set %v", r.ID(), active)
	}
	n := len(active)
	parts := make([]transfer, n)
	for round, q := 0, rrRounds(n); round < q; round++ {
		pi := rrPartner(n, round, me)
		if pi < 0 {
			continue // bye round (odd participant count)
		}
		t, err := exchangeChunked(r, active[pi], active[pi], tagDeltas, payload, chunk)
		if err != nil {
			return nil, w, err
		}
		parts[pi] = t
	}
	total := 0
	for i := range parts {
		total += max(int(parts[i].total)/8-2, 0) // the deltas appendDeltas finds
	}
	remote := make([]Delta, 0, total)
	for i := range parts {
		if i == me {
			continue
		}
		var err error
		if remote, err = appendDeltas(remote, parts[i]); err != nil {
			return nil, w, err
		}
	}
	w.HashOps = int64(len(remote) + len(local))
	return remote, w, nil
}

// Payload is a set of components with their incident edges, as moved
// between ranks by segment exchanges and leader merges.
type Payload struct {
	Comps []int32
	Edges []graph.Edge
}

// encodePayload serializes a component transfer into one exactly-sized
// buffer.
func encodePayload(p Payload) []byte {
	buf := make([]byte, 0, 8+4*len(p.Comps)+8+graph.EdgeBytes*len(p.Edges))
	buf = wire.AppendInt32s(buf, p.Comps)
	return wire.AppendEdges(buf, p.Edges)
}

// appendPayloads decodes every payload of ts, in order, and appends its
// components and edges to into's. Both grow at most once, to their exact
// final size, and only when into lacks the room: every payload is decoded
// from its chunks straight into them. A payload with bytes left over is
// malformed.
func appendPayloads(into Payload, ts []transfer) (Payload, error) {
	nComps, nEdges := 0, 0
	for i := range ts {
		c, e := payloadLens(ts[i].reader())
		nComps += c
		nEdges += e
	}
	comps, edges := reserve(into.Comps, nComps), reserve(into.Edges, nEdges)
	for i := range ts {
		rd := ts[i].reader()
		var err error
		if comps, err = rd.Int32sInto(comps); err != nil {
			return Payload{}, err
		}
		if edges, err = rd.EdgesInto(edges); err != nil {
			return Payload{}, err
		}
		if rd.Len() > 0 {
			return Payload{}, fmt.Errorf("merge: %d trailing bytes after a payload from rank %d", rd.Len(), ts[i].src)
		}
	}
	return Payload{Comps: comps, Edges: edges}, nil
}

// payloadLens reads the component and edge counts from an encoded
// payload's headers. A count whose header is missing or claims more bytes
// than follow reads as 0; decoding then reports the error.
func payloadLens(rd wire.Reader) (comps, edges int) {
	if rd.Len() < 8 {
		return 0, 0
	}
	nc := rd.Uint64()
	if nc > uint64(rd.Len())/4 {
		return 0, 0
	}
	rd.Skip(4 * int(nc))
	if rd.Len() < 8 {
		return int(nc), 0
	}
	ne := rd.Uint64()
	if ne > uint64(rd.Len())/graph.EdgeBytes {
		return int(nc), 0
	}
	return int(nc), int(ne)
}

// reserve returns s with room for n more elements, reallocating at
// exactly len(s)+n when its capacity is short.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// ExchangeSegments runs one ring step of the §3.4 segment exchange: p goes
// to sendTo while the next segment arrives from recvFrom, chunk-interleaved
// so the whole ring progresses in lockstep without any rank blocking in a
// send. The arriving segment is decoded from its chunks straight into
// into, which grows only when it lacks the room (see appendPayloads). p is
// encoded before anything arrives, so into's spare capacity may hold p's
// storage, as the slices SplitEdges returns do. Every member of the ring
// must call it at the same program point.
func ExchangeSegments(r *cluster.Rank, sendTo, recvFrom int, p Payload, chunk int, into Payload) (Payload, error) {
	t, err := exchangeChunked(r, sendTo, recvFrom, tagSegment, encodePayload(p), chunk)
	if err != nil {
		return Payload{}, err
	}
	return appendPayloads(into, []transfer{t})
}

// SendToLeader ships everything a rank owns to its group leader. The send
// is asynchronous: members enqueue and move on to the next collective while
// the leader — which only receives during a gather, so it always makes
// progress — drains the streams one member at a time.
func SendToLeader(r *cluster.Rank, leader int, p Payload, chunk int) {
	sendChunked(r, leader, tagToLeader, encodePayload(p), chunk)
}

// RecvMembers receives the full state of every member of group but the
// calling leader and appends it to into, in group order. Every member's
// chunks arrive before any is decoded, so into's components and edges
// grow at most once and each payload is decoded from its chunks straight
// into them (see appendPayloads). Reassembly follows each sender's
// chunk-count header.
func RecvMembers(r *cluster.Rank, group []int, into Payload) (Payload, error) {
	ts := make([]transfer, 0, len(group))
	for _, member := range group {
		if member == r.ID() {
			continue
		}
		t, err := recvChunked(r, member, tagToLeader)
		if err != nil {
			return Payload{}, err
		}
		ts = append(ts, t)
	}
	return appendPayloads(into, ts)
}

// SendForest ships chosen MST edge ids to dst (final result gathering).
func SendForest(r *cluster.Rank, dst int, ids []int32, chunk int) {
	sendChunked(r, dst, tagForest, wire.AppendInt32s(nil, ids), chunk)
}

// RecvForest receives chosen MST edge ids from src and appends them to
// into, decoding them from their chunks.
func RecvForest(r *cluster.Rank, src int, into []int32) ([]int32, error) {
	t, err := recvChunked(r, src, tagForest)
	if err != nil {
		return nil, err
	}
	return appendForest(into, t)
}

// appendForest decodes the edge ids of t and appends them to dst. A
// transfer with bytes left over is malformed.
func appendForest(dst []int32, t transfer) ([]int32, error) {
	rd := t.reader()
	dst, err := rd.Int32sInto(dst)
	if err == nil && rd.Len() > 0 {
		err = fmt.Errorf("merge: %d trailing bytes after the forest from rank %d", rd.Len(), t.src)
	}
	return dst, err
}
