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

// assembler accumulates the chunks of one inbound transfer while enforcing
// the payload bound cumulatively, so a sender whose header lied small but
// whose chunks run large is still cut off at the bound.
type assembler struct {
	src   int
	buf   []byte
	total int64
}

// add appends one received chunk. Empty chunks are protocol errors: the
// sender never produces them (a zero-length payload has zero chunks), and
// admitting them would let a hostile count spin the receive loop without
// tripping the byte bound. The first chunk is kept as received, capped so
// that a second one reallocates: a one-chunk payload is never copied, and
// every receiver only reads the payload.
func (a *assembler) add(chunk []byte) error {
	if len(chunk) == 0 {
		return fmt.Errorf("merge: empty chunk from rank %d (protocol error)", a.src)
	}
	a.total += int64(len(chunk))
	if bound := MaxPayload(); a.total > bound {
		return fmt.Errorf("%w: %d bytes from rank %d, bound %d", ErrPayloadBound, a.total, a.src, bound)
	}
	if a.buf == nil {
		a.buf = chunk[:len(chunk):len(chunk)]
	} else {
		a.buf = append(a.buf, chunk...)
	}
	return nil
}

// recvChunked receives a payload sent by sendChunked, validating the chunk
// count and the cumulative size against MaxPayload.
func recvChunked(r *cluster.Rank, src, tag int) ([]byte, error) {
	n, err := parseChunkHeader(src, r.Recv(src, tag))
	if err != nil {
		return nil, err
	}
	a := assembler{src: src}
	for i := uint64(0); i < n; i++ {
		if err := a.add(r.Recv(src, tag)); err != nil {
			return nil, err
		}
	}
	return a.buf, nil
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
func exchangeChunked(r *cluster.Rank, sendTo, recvFrom, tag int, payload []byte, chunk int) ([]byte, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	nSend := numChunks(len(payload), chunk)
	r.Send(sendTo, tag, wire.AppendUint64(nil, uint64(nSend)))
	nRecv, err := parseChunkHeader(recvFrom, r.Recv(recvFrom, tag))
	if err != nil {
		return nil, err
	}
	a := assembler{src: recvFrom}
	for i := 0; i < nSend || uint64(i) < nRecv; i++ {
		if i < nSend {
			lo, hi := chunkSpan(len(payload), chunk, i)
			r.Send(sendTo, tag, payload[lo:hi])
		}
		if uint64(i) < nRecv {
			if err := a.add(r.Recv(recvFrom, tag)); err != nil {
				return nil, err
			}
		}
	}
	return a.buf, nil
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

// appendDeltas decodes the parent deltas of buf and appends them to dst.
// encodeDeltas writes n deltas in 16 + 8n bytes, so the length gives n,
// and both counts must match it.
func appendDeltas(dst []Delta, buf []byte) ([]Delta, error) {
	n := len(buf)/8 - 2
	if n < 0 || len(buf)%8 != 0 || binary.LittleEndian.Uint64(buf) != uint64(n) || binary.LittleEndian.Uint64(buf[8+4*n:]) != uint64(n) {
		return dst, fmt.Errorf("merge: malformed delta payload of %d bytes", len(buf))
	}
	olds, news := buf[8:], buf[16+4*n:]
	for i := 0; i < 4*n; i += 4 {
		dst = append(dst, Delta{Old: int32(binary.LittleEndian.Uint32(olds[i:])), New: int32(binary.LittleEndian.Uint32(news[i:]))})
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
	parts := make([][]byte, n)
	for round, q := 0, rrRounds(n); round < q; round++ {
		pi := rrPartner(n, round, me)
		if pi < 0 {
			continue // bye round (odd participant count)
		}
		buf, err := exchangeChunked(r, active[pi], active[pi], tagDeltas, payload, chunk)
		if err != nil {
			return nil, w, err
		}
		parts[pi] = buf
	}
	total := 0
	for _, buf := range parts {
		total += max(len(buf)/8-2, 0) // the deltas appendDeltas finds
	}
	remote := make([]Delta, 0, total)
	for i, buf := range parts {
		if i == me {
			continue
		}
		var err error
		if remote, err = appendDeltas(remote, buf); err != nil {
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

// appendPayloads decodes every encoded payload of bufs, in order, and
// appends its components and edges to into's. Both grow at most once, to
// their exact final size, and every payload is decoded straight into
// them.
func appendPayloads(into Payload, bufs [][]byte) (Payload, error) {
	nComps, nEdges := 0, 0
	for _, buf := range bufs {
		c, e := payloadLens(buf)
		nComps += c
		nEdges += e
	}
	comps, edges := reserve(into.Comps, nComps), reserve(into.Edges, nEdges)
	for _, buf := range bufs {
		var err error
		if comps, buf, err = wire.TakeInt32sInto(comps, buf); err != nil {
			return Payload{}, err
		}
		if edges, _, err = wire.TakeEdgesInto(edges, buf); err != nil {
			return Payload{}, err
		}
	}
	return Payload{Comps: comps, Edges: edges}, nil
}

// payloadLens reads the component and edge counts from an encoded
// payload's headers. A count whose header is missing or claims more bytes
// than follow reads as 0; decoding then reports the error.
func payloadLens(buf []byte) (comps, edges int) {
	nc, rest, err := wire.TakeUint64(buf)
	if err != nil || nc > uint64(len(rest))/4 {
		return 0, 0
	}
	ne, rest, err := wire.TakeUint64(rest[4*nc:])
	if err != nil || ne > uint64(len(rest))/graph.EdgeBytes {
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
// send. The arriving segment is decoded straight into into, which grows
// once (see appendPayloads). Every member of the ring must call it at the
// same program point.
func ExchangeSegments(r *cluster.Rank, sendTo, recvFrom int, p Payload, chunk int, into Payload) (Payload, error) {
	buf, err := exchangeChunked(r, sendTo, recvFrom, tagSegment, encodePayload(p), chunk)
	if err != nil {
		return Payload{}, err
	}
	return appendPayloads(into, [][]byte{buf})
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
// buffer arrives before any is decoded, so into's components and edges
// grow once and each payload is decoded straight into them (see
// appendPayloads). Reassembly follows each sender's chunk-count header.
func RecvMembers(r *cluster.Rank, group []int, into Payload) (Payload, error) {
	bufs := make([][]byte, 0, len(group))
	for _, member := range group {
		if member == r.ID() {
			continue
		}
		buf, err := recvChunked(r, member, tagToLeader)
		if err != nil {
			return Payload{}, err
		}
		bufs = append(bufs, buf)
	}
	return appendPayloads(into, bufs)
}

// SendForest ships chosen MST edge ids to dst (final result gathering).
func SendForest(r *cluster.Rank, dst int, ids []int32, chunk int) {
	sendChunked(r, dst, tagForest, wire.AppendInt32s(nil, ids), chunk)
}

// RecvForest receives chosen MST edge ids from src.
func RecvForest(r *cluster.Rank, src int, chunk int) ([]int32, error) {
	buf, err := recvChunked(r, src, tagForest)
	if err != nil {
		return nil, err
	}
	ids, _, err := wire.TakeInt32s(buf)
	return ids, err
}
