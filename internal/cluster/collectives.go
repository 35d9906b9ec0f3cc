package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ReduceOp is an elementwise combination for Allreduce.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	default:
		panic(fmt.Sprintf("cluster: unknown reduce op %d", op))
	}
}

// Control tags of the collective and report protocols. They sit in their
// own band, far from the application tags (merge: small positive;
// Alltoall: -103).
const (
	tagCollectUp   int32 = -9001
	tagCollectDown int32 = -9002
	tagReport      int32 = -9003
)

// Application tags of the charged collectives' point-to-point messages.
const (
	tagAlltoall = -103
	tagGather   = -104
)

// collectHeaderLen is the fixed prefix of a collective frame: the clock's
// float64 bits, a has-values flag (0 for a barrier, 1 for a reduction)
// and the value count, each a little-endian uint64. The values follow as
// little-endian int64s.
const collectHeaderLen = 24

// errCollectFrame marks a collective frame that is not exactly a header
// plus the values it announces.
var errCollectFrame = errors.New("cluster: malformed collective frame")

// encodeCollect packs a rank's contribution, or a resolved round: the
// clock and, unless vals is nil (a barrier), the values.
func encodeCollect(now float64, vals []int64) []byte {
	buf := make([]byte, collectHeaderLen+8*len(vals))
	binary.LittleEndian.PutUint64(buf, math.Float64bits(now))
	if vals != nil {
		binary.LittleEndian.PutUint64(buf[8:], 1)
	}
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(vals)))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[collectHeaderLen+8*i:], uint64(v))
	}
	return buf
}

// decodeCollect validates an encodeCollect frame and returns its clock,
// whether it carries values, and the value bytes (aliasing buf, 8 per
// value). It allocates nothing; a malformed frame fails as a commFailure.
func decodeCollect(buf []byte) (now float64, raw []byte, hasVals bool) {
	if len(buf) < collectHeaderLen {
		panic(commFailure{fmt.Errorf("%w: %d bytes, header needs %d", errCollectFrame, len(buf), collectHeaderLen)})
	}
	flag := binary.LittleEndian.Uint64(buf[8:])
	n := binary.LittleEndian.Uint64(buf[16:])
	raw = buf[collectHeaderLen:]
	if flag > 1 || (flag == 0 && n != 0) || len(raw)%8 != 0 || n != uint64(len(raw)/8) {
		panic(commFailure{fmt.Errorf("%w: flag %d, %d values in %d payload bytes", errCollectFrame, flag, n, len(raw))})
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), raw, flag == 1
}

// collect runs one synchronisation round and returns the maximum virtual
// clock across ranks. Every backend runs the same flat protocol over the
// rank's own endpoint: ranks send their clock and values to rank 0, which
// folds each frame into its own vals straight from the bytes and sends the
// result back. With vals non-nil the reduction is in place: on return vals
// holds the elementwise op-reduction on every rank. Control frames carry
// no α–β charge; the callers price the collective analytically.
func (r *Rank) collect(vals []int64, op ReduceOp) float64 {
	p := r.c.p
	if p == 1 {
		return r.now
	}
	if r.id != 0 {
		r.sendCtrl(0, tagCollectUp, encodeCollect(r.now, vals))
		maxNow, raw, hasVals := decodeCollect(r.recvCtrl(0, tagCollectDown))
		checkCollectShape(0, vals, raw, hasVals)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return maxNow
	}
	maxNow := r.now
	for src := 1; src < p; src++ {
		now, raw, hasVals := decodeCollect(r.recvCtrl(src, tagCollectUp))
		if now > maxNow {
			maxNow = now
		}
		checkCollectShape(src, vals, raw, hasVals)
		for i := range vals {
			vals[i] = op.apply(vals[i], int64(binary.LittleEndian.Uint64(raw[8*i:])))
		}
	}
	down := encodeCollect(maxNow, vals)
	for dst := 1; dst < p; dst++ {
		r.sendCtrl(dst, tagCollectDown, down)
	}
	return maxNow
}

// checkCollectShape panics when rank src entered a different collective
// than this rank: a barrier against a reduction, or vectors of different
// lengths. Like a mismatched MPI program, that is a protocol violation.
func checkCollectShape(src int, vals []int64, raw []byte, hasVals bool) {
	if hasVals != (vals != nil) {
		panic(fmt.Sprintf("cluster: collective mismatch: rank %d has values %v, this rank %v", src, hasVals, vals != nil))
	}
	if len(raw) != 8*len(vals) {
		panic(fmt.Sprintf("cluster: allreduce length mismatch %d vs %d", len(raw)/8, len(vals)))
	}
}

// Barrier synchronizes all ranks: every clock advances to the maximum
// across ranks plus the modeled dissemination-barrier cost.
func (r *Rank) Barrier() {
	maxNow := r.collect(nil, OpSum)
	r.chargeCommUntil(maxNow + r.c.comm.BarrierSeconds(r.c.p))
}

// Allreduce combines vals elementwise across all ranks with op, in place
// (MPI_IN_PLACE style): it overwrites vals with the result and returns
// vals. Every rank must pass a vector of the same length. Clocks
// synchronize to the maximum plus the modeled Rabenseifner allreduce cost
// for the vector size.
func (r *Rank) Allreduce(vals []int64, op ReduceOp) []int64 {
	if vals == nil {
		vals = []int64{}
	}
	maxNow := r.collect(vals, op)
	r.chargeCommUntil(maxNow + r.c.comm.AllreduceSeconds(int64(8*len(vals)), r.c.p))
	return vals
}

// AllreduceScalar is Allreduce for a single value.
func (r *Rank) AllreduceScalar(v int64, op ReduceOp) int64 {
	return r.Allreduce([]int64{v}, op)[0]
}

// StatAllreduce is Allreduce — in place, returning vals — without
// charging any virtual time: it is for exchanging bookkeeping about the
// simulation (per-rank peaks, iteration counts) that the modeled MPI
// program would not send, so the synchronized clocks — and every golden
// simulated-time report — stay exactly as if the call were absent. The
// collective still synchronizes ranks in real time, so all participants
// must call it at the same program point.
func (r *Rank) StatAllreduce(vals []int64, op ReduceOp) []int64 {
	if vals == nil {
		vals = []int64{}
	}
	r.collect(vals, op)
	return vals
}

// Alltoall exchanges personalized payloads between all ranks: payloads[d]
// goes to rank d, and the result holds the payload received from each
// source (the rank's own payload is passed through). The schedule is the
// standard P−1-round rotation: in round k, send to (me+k) mod P and
// receive from (me−k) mod P. Unlike Barrier and Allreduce, its simulated
// cost emerges from the α–β charges of the underlying sends.
func (r *Rank) Alltoall(payloads [][]byte) [][]byte {
	p := r.c.p
	in := make([][]byte, p)
	in[r.id] = payloads[r.id]
	for k := 1; k < p; k++ {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		r.Send(dst, tagAlltoall, payloads[dst])
		in[src] = r.Recv(src, tagAlltoall)
	}
	return in
}

// Exchange is Alltoall over typed lists: out[d] goes to rank d, encoded
// by encode, and the result holds the list received from each source,
// decoded by decode. The rank's own slot is neither encoded nor returned
// (it is nil), and an empty payload decodes as no values without calling
// decode. The encoder decides what an empty list costs: one that returns
// no bytes sends an empty message, one that writes a length prefix sends
// the prefix.
func Exchange[T any](r *Rank, out [][]T, encode func([]T) []byte, decode func([]byte) ([]T, error)) ([][]T, error) {
	payloads := make([][]byte, r.c.p)
	for d, vals := range out {
		if d != r.id {
			payloads[d] = encode(vals)
		}
	}
	in := make([][]T, r.c.p)
	for src, buf := range r.Alltoall(payloads) {
		if src == r.id || len(buf) == 0 {
			continue
		}
		vals, err := decode(buf)
		if err != nil {
			return nil, fmt.Errorf("cluster: exchange from rank %d: %w", src, err)
		}
		in[src] = vals
	}
	return in, nil
}

// Gather collects every rank's payload at rank 0. On rank 0 it returns
// the payloads in rank order, its own included; on every other rank it
// returns nil. Each non-root rank sends one message, charged like any
// Send, and rank 0 receives them in rank order.
func (r *Rank) Gather(payload []byte) [][]byte {
	if r.id != 0 {
		r.Send(0, tagGather, payload)
		return nil
	}
	in := make([][]byte, r.c.p)
	in[0] = payload
	for src := 1; src < r.c.p; src++ {
		in[src] = r.Recv(src, tagGather)
	}
	return in
}
