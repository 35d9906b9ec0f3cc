package merge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/transport"
	"mndmst/internal/wire"
)

// testComm is the communication model the merge tests simulate under.
func testComm() cost.CommModel {
	return cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
}

// tcpRanks is a running p-rank cluster over loopback TCP: one goroutine
// per rank, each with its own real endpoint — the code path OS-separated
// workers take, minus the fork.
type tcpRanks struct {
	eps  []*transport.TCP  // by rank
	errs []error           // by rank; valid after done closes
	reps []*cluster.Report // by rank; valid after done closes
	done chan struct{}
}

// launchTCPRanks rendezvouses p endpoints and starts fn on each rank. It
// returns without waiting for completion so callers can observe a wedge.
func launchTCPRanks(t *testing.T, p int, cfg transport.TCPConfig, fn func(r *cluster.Rank) error) *tcpRanks {
	t.Helper()
	coord, err := transport.NewCoordinator("127.0.0.1:0", p, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	cfg.Coordinator = coord.Addr()

	dialed := make([]*transport.TCP, p)
	dialErrs := make([]error, p)
	var dialWG sync.WaitGroup
	for i := 0; i < p; i++ {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			dialed[i], dialErrs[i] = transport.DialTCP(cfg)
		}(i)
	}
	dialWG.Wait()
	for i, err := range dialErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	run := &tcpRanks{
		eps:  make([]*transport.TCP, p),
		errs: make([]error, p),
		reps: make([]*cluster.Report, p),
		done: make(chan struct{}),
	}
	for _, ep := range dialed {
		run.eps[ep.Rank()] = ep
	}
	t.Cleanup(run.closeAll) // Close is idempotent

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cluster.NewDistributed(run.eps[r], testComm())
			rep, err := c.Run(context.Background(), fn)
			if err == nil {
				rep, err = c.GatherReport(rep)
			}
			run.reps[r], run.errs[r] = rep, err
		}(r)
	}
	go func() { wg.Wait(); close(run.done) }()
	return run
}

// closeAll tears every endpoint down concurrently, so a wedged cluster's
// teardown costs one drain window, not p of them.
func (tr *tcpRanks) closeAll() {
	var wg sync.WaitGroup
	for _, ep := range tr.eps {
		if ep == nil {
			continue
		}
		wg.Add(1)
		go func(ep *transport.TCP) { defer wg.Done(); ep.Close() }(ep)
	}
	wg.Wait()
}

// wait blocks until every rank finished or d elapsed, reporting completion.
func (tr *tcpRanks) wait(d time.Duration) bool {
	select {
	case <-tr.done:
		return true
	case <-time.After(d):
		return false
	}
}

// boundedTCPCfg caps the buffering of every layer — outbound queue, kernel
// socket buffers, receive window — so the end-to-end in-flight capacity per
// pair is a few hundred KiB, far below the 1 MiB test payloads. Timeouts
// are long so a wedge is observed as a wedge, not as an early error.
func boundedTCPCfg() transport.TCPConfig {
	return transport.TCPConfig{
		SendQueueBytes:    64 << 10,
		RecvWindowBytes:   64 << 10,
		SocketBufferBytes: 64 << 10,
		SendTimeout:       25 * time.Second,
		SendQueueTimeout:  25 * time.Second,
		PeerTimeout:       25 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
	}
}

// bigDeltas builds a delta set whose encoding is ≥ 1 MiB (n deltas encode
// to 8n bytes plus headers), tagged with the sender's rank for verification.
func bigDeltas(rank, n int) []Delta {
	ds := make([]Delta, n)
	for i := range ds {
		ds[i] = Delta{Old: int32(rank*n + i), New: int32(rank)}
	}
	return ds
}

// legacyExchangeDeltas reproduces the pre-fix §3.3 schedule verbatim: every
// active rank pushes ALL its chunked payloads to every peer with blocking
// sends before posting a single receive. Kept as the regression baseline —
// over bounded buffers this order must wedge (see the test below), which is
// exactly why ExchangeDeltas no longer works this way.
func legacyExchangeDeltas(r *cluster.Rank, active []int, local []Delta, chunk int) ([]Delta, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	payload := encodeDeltas(local)
	for _, dst := range active {
		if dst == r.ID() {
			continue
		}
		n := numChunks(len(payload), chunk)
		r.Send(dst, tagDeltas, wire.AppendUint64(nil, uint64(n)))
		for i := 0; i < n; i++ {
			lo, hi := chunkSpan(len(payload), chunk, i)
			r.Send(dst, tagDeltas, payload[lo:hi])
		}
	}
	var remote []Delta
	for _, src := range active {
		if src == r.ID() {
			continue
		}
		t, err := recvChunked(r, src, tagDeltas)
		if err != nil {
			return nil, err
		}
		ds, err := appendDeltas(nil, t)
		if err != nil {
			return nil, err
		}
		remote = append(remote, ds...)
	}
	return remote, nil
}

// TestLegacyExchangeDeadlocksUnderBoundedBuffers demonstrates the deadlock
// class this PR eliminates: 4 ranks, ≥1 MiB of deltas per pair, bounded
// buffering at every layer, and the old send-all-then-receive-all order.
// Every rank fills its outbound path to its first peer and blocks; nobody
// ever posts a receive; the cluster wedges. The test observes the wedge,
// then closes the endpoints and checks the wedge surfaced as rank errors —
// not a hang.
func TestLegacyExchangeDeadlocksUnderBoundedBuffers(t *testing.T) {
	const p = 4
	const nDeltas = 131072 // 8 bytes each → 1 MiB encoded per pair
	active := []int{0, 1, 2, 3}
	run := launchTCPRanks(t, p, boundedTCPCfg(), func(r *cluster.Rank) error {
		_, err := legacyExchangeDeltas(r, active, bigDeltas(r.ID(), nDeltas), 16<<10)
		return err
	})
	if run.wait(4 * time.Second) {
		for r, err := range run.errs {
			t.Logf("rank %d: err=%v", r, err)
		}
		t.Fatal("legacy schedule completed over bounded buffers; the deadlock reproduction is broken")
	}
	// Wedged, as diagnosed. Tear the transports down: the wedge must
	// resolve into per-rank errors within the bounded close-drain window.
	run.closeAll()
	if !run.wait(20 * time.Second) {
		t.Fatal("ranks still hung after transport close — error paths are broken")
	}
	failed := 0
	for _, err := range run.errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no rank reported an error after the wedge was torn down")
	}
}

// TestExchangeDeltasBoundedBuffersNoDeadlock is the acceptance test for the
// rewritten engine: the identical workload — 4 ranks, ≥1 MiB per pair, the
// same bounded buffers that wedge the legacy schedule — must complete well
// inside 30s, with every delta delivered in ascending sender order.
func TestExchangeDeltasBoundedBuffersNoDeadlock(t *testing.T) {
	const p = 4
	const nDeltas = 131072 // 1 MiB encoded per pair
	active := []int{0, 1, 2, 3}
	start := time.Now()
	run := launchTCPRanks(t, p, boundedTCPCfg(), func(r *cluster.Rank) error {
		remote, _, err := ExchangeDeltas(r, active, bigDeltas(r.ID(), nDeltas), 16<<10)
		if err != nil {
			return err
		}
		if len(remote) != (p-1)*nDeltas {
			return fmt.Errorf("rank %d: %d remote deltas, want %d", r.ID(), len(remote), (p-1)*nDeltas)
		}
		// Ascending sender order: block k holds sender k's deltas (skipping
		// ourselves), each tagged Old = sender*nDeltas + i, New = sender.
		block := 0
		for sender := 0; sender < p; sender++ {
			if sender == r.ID() {
				continue
			}
			d0 := remote[block*nDeltas]
			dLast := remote[block*nDeltas+nDeltas-1]
			if d0.Old != int32(sender*nDeltas) || d0.New != int32(sender) ||
				dLast.Old != int32(sender*nDeltas+nDeltas-1) {
				return fmt.Errorf("rank %d: block %d (sender %d) corrupt: first=%+v last=%+v",
					r.ID(), block, sender, d0, dLast)
			}
			block++
		}
		return nil
	})
	if !run.wait(30 * time.Second) {
		t.Fatal("rewritten exchange deadlocked over bounded buffers")
	}
	for r, err := range run.errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("exchange took %v, want < 30s", elapsed)
	}
}

// TestExchangeMemTCPSimulatedTimeParity pins the other acceptance bar: a
// deterministic merge-communication program — all-to-all deltas, a ring
// segment step, a leader gather, an allreduce — must produce bit-identical
// simulated-time reports over the in-process and TCP backends.
func TestExchangeMemTCPSimulatedTimeParity(t *testing.T) {
	const p = 4
	const nDeltas = 20000
	active := []int{0, 1, 2, 3}
	program := func(r *cluster.Rank) error {
		r.SetPhase("merge")
		remote, _, err := ExchangeDeltas(r, active, bigDeltas(r.ID(), nDeltas), 8<<10)
		if err != nil {
			return err
		}
		if len(remote) != (p-1)*nDeltas {
			return fmt.Errorf("rank %d: %d remote deltas", r.ID(), len(remote))
		}
		// One ring step.
		sendTo, recvFrom := (r.ID()+1)%p, (r.ID()+p-1)%p
		pl, err := ExchangeSegments(r, sendTo, recvFrom,
			Payload{Comps: []int32{int32(r.ID())}, Edges: []graph.Edge{{U: int32(r.ID()), V: 99, W: graph.MakeWeight(7, int32(r.ID()))}}}, 4<<10, Payload{})
		if err != nil {
			return err
		}
		if len(pl.Comps) != 1 || pl.Comps[0] != int32(recvFrom) {
			return fmt.Errorf("rank %d: ring payload %+v", r.ID(), pl)
		}
		// Leader gather.
		if r.ID() != 0 {
			SendToLeader(r, 0, Payload{Comps: []int32{int32(r.ID())}}, 4<<10)
		} else {
			if _, err := RecvMembers(r, []int{0, 1, 2, 3}, Payload{}); err != nil {
				return err
			}
		}
		if v := r.AllreduceScalar(int64(r.ID()), cluster.OpSum); v != 6 {
			return fmt.Errorf("rank %d: allreduce %d", r.ID(), v)
		}
		return nil
	}

	inproc, err := cluster.New(p, testComm()).Run(context.Background(), program)
	if err != nil {
		t.Fatal(err)
	}
	run := launchTCPRanks(t, p, transport.TCPConfig{}, program)
	if !run.wait(60 * time.Second) {
		t.Fatal("TCP parity program hung")
	}
	for r, err := range run.errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	rep := run.reps[0] // rank 0 gathered all ranks
	if len(rep.Ranks) != p {
		t.Fatalf("gathered %d ranks", len(rep.Ranks))
	}
	if rep.ExecutionTime() != inproc.ExecutionTime() {
		t.Fatalf("exec %v (tcp) != %v (in-process)", rep.ExecutionTime(), inproc.ExecutionTime())
	}
	if rep.CommTime() != inproc.CommTime() || rep.ComputeTime() != inproc.ComputeTime() {
		t.Fatalf("comm/compute diverge: (%v,%v) vs (%v,%v)",
			rep.CommTime(), rep.ComputeTime(), inproc.CommTime(), inproc.ComputeTime())
	}
	if rep.TotalBytes() != inproc.TotalBytes() || rep.TotalMsgs() != inproc.TotalMsgs() {
		t.Fatalf("traffic diverges: %d/%d vs %d/%d",
			rep.TotalBytes(), rep.TotalMsgs(), inproc.TotalBytes(), inproc.TotalMsgs())
	}
}

// TestRecvChunkedRejectsHostileChunkCount is the header-validation
// regression: a corrupt frame claiming 2^60 chunks must be rejected
// immediately by the payload bound, not drive an unbounded recv/alloc loop.
func TestRecvChunkedRejectsHostileChunkCount(t *testing.T) {
	c := cluster.New(2, testComm())
	_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		if r.ID() == 0 {
			r.Send(1, tagDeltas, wire.AppendUint64(nil, 1<<60))
			return nil
		}
		_, err := recvChunked(r, 0, tagDeltas)
		if !errors.Is(err, ErrPayloadBound) {
			return fmt.Errorf("hostile chunk count: err=%v, want ErrPayloadBound", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvChunkedEnforcesCumulativeBound checks the second line of defense:
// a sender whose header was plausible but whose chunks run past the
// configured bound is cut off at the bound.
func TestRecvChunkedEnforcesCumulativeBound(t *testing.T) {
	SetMaxPayload(1 << 10)
	defer SetMaxPayload(0)
	c := cluster.New(2, testComm())
	_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		if r.ID() == 0 {
			// Header says 2 chunks; together they exceed the 1 KiB bound.
			r.Send(1, tagDeltas, wire.AppendUint64(nil, 2))
			r.Send(1, tagDeltas, make([]byte, 800))
			r.Send(1, tagDeltas, make([]byte, 800))
			return nil
		}
		_, err := recvChunked(r, 0, tagDeltas)
		if !errors.Is(err, ErrPayloadBound) {
			return fmt.Errorf("cumulative overflow: err=%v, want ErrPayloadBound", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvChunkedRejectsEmptyChunk pins the anti-spin rule: protocol chunks
// are never empty, and admitting empty ones would let a hostile count spin
// the receive loop below the byte bound.
func TestRecvChunkedRejectsEmptyChunk(t *testing.T) {
	c := cluster.New(2, testComm())
	_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		if r.ID() == 0 {
			r.Send(1, tagDeltas, wire.AppendUint64(nil, 1))
			r.Send(1, tagDeltas, []byte{})
			return nil
		}
		if _, err := recvChunked(r, 0, tagDeltas); err == nil {
			return fmt.Errorf("empty chunk accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
