package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst/internal/wire"
)

// --- queue ---

func TestQueueFIFOAndDrainBeforeError(t *testing.T) {
	q := newQueue()
	for i := 0; i < 5; i++ {
		q.put(Message{Tag: int32(i)})
	}
	q.fail(errors.New("dead"))
	q.fail(errors.New("second cause must not win"))
	for i := 0; i < 5; i++ {
		m, err := q.take()
		if err != nil || m.Tag != int32(i) {
			t.Fatalf("msg %d: tag=%d err=%v", i, m.Tag, err)
		}
	}
	if _, err := q.take(); err == nil || err.Error() != "dead" {
		t.Fatalf("drained queue err=%v", err)
	}
	if q.pending() != 0 {
		t.Fatalf("pending=%d", q.pending())
	}
}

func TestQueueFailUnblocksWaiter(t *testing.T) {
	q := newQueue()
	done := make(chan error, 1)
	go func() {
		_, err := q.take()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.fail(ErrClosed)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err=%v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("take never unblocked")
	}
}

// --- Mem ---

func TestMemAllPairsFIFO(t *testing.T) {
	const p = 4
	eps := NewMem(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := eps[r]
			if ep.Rank() != r || ep.P() != p {
				errs[r] = fmt.Errorf("rank=%d p=%d", ep.Rank(), ep.P())
				return
			}
			for dst := 0; dst < p; dst++ {
				for k := 0; k < 10; k++ {
					m := Message{Tag: int32(k), Arrival: float64(r*100 + k), Data: []byte{byte(r), byte(dst), byte(k)}}
					if err := ep.Send(dst, m); err != nil {
						errs[r] = err
						return
					}
				}
			}
			for src := 0; src < p; src++ {
				for k := 0; k < 10; k++ {
					m, err := ep.Recv(src)
					if err != nil {
						errs[r] = err
						return
					}
					if m.Tag != int32(k) || m.Arrival != float64(src*100+k) ||
						len(m.Data) != 3 || m.Data[0] != byte(src) || m.Data[1] != byte(r) || m.Data[2] != byte(k) {
						errs[r] = fmt.Errorf("rank %d src %d k %d: got %+v", r, src, k, m)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestMemCloseUnblocksRecv(t *testing.T) {
	eps := NewMem(2)
	done := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv(1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	eps[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err=%v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv never unblocked after Close")
	}
}

// TestMemAbortFailsSendAndRecv checks the Aborter contract in-process:
// after Abort, undelivered messages are gone and every endpoint's Send and
// Recv return the cause.
func TestMemAbortFailsSendAndRecv(t *testing.T) {
	eps := NewMem(2)
	if err := eps[0].Send(1, Message{Tag: 1}); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("aborted")
	eps[0].Abort(cause)
	if err := eps[1].Send(0, Message{Tag: 2}); !errors.Is(err, cause) {
		t.Fatalf("Send after Abort: err=%v", err)
	}
	if err := eps[0].Send(1, Message{Tag: 3}); !errors.Is(err, cause) {
		t.Fatalf("Send from the aborting endpoint: err=%v", err)
	}
	if _, err := eps[1].Recv(0); !errors.Is(err, cause) {
		t.Fatalf("Recv after Abort: err=%v", err)
	}
}

// --- TCP helpers ---

// startTCPCluster spins up a coordinator plus p real endpoints over
// loopback and returns them indexed by rank.
func startTCPCluster(t *testing.T, p int, cfg TCPConfig) []*TCP {
	t.Helper()
	coord, err := NewCoordinator("127.0.0.1:0", p, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	servErr := make(chan error, 1)
	go func() { servErr <- coord.Serve() }()
	cfg.Coordinator = coord.Addr()

	dialed := make([]*TCP, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dialed[i], errs[i] = DialTCP(cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-servErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	eps := make([]*TCP, p)
	for _, ep := range dialed {
		if eps[ep.Rank()] != nil {
			t.Fatalf("duplicate rank %d", ep.Rank())
		}
		eps[ep.Rank()] = ep
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return eps
}

// --- TCP ---

func TestTCPMeshAllPairs(t *testing.T) {
	const p = 4
	eps := startTCPCluster(t, p, TCPConfig{})
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := eps[r]
			for dst := 0; dst < p; dst++ {
				m := Message{Tag: 7, Arrival: 0.25 * float64(r), Data: []byte(fmt.Sprintf("from %d to %d", r, dst))}
				if err := ep.Send(dst, m); err != nil {
					errs[r] = err
					return
				}
			}
			for src := 0; src < p; src++ {
				m, err := ep.Recv(src)
				if err != nil {
					errs[r] = err
					return
				}
				want := fmt.Sprintf("from %d to %d", src, r)
				if m.Tag != 7 || m.Arrival != 0.25*float64(src) || string(m.Data) != want {
					errs[r] = fmt.Errorf("src %d: tag=%d arrival=%g data=%q", src, m.Tag, m.Arrival, m.Data)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPFIFOAndLargePayload(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{})
	const k = 200
	big := make([]byte, 1<<20) // spans many bufio fills
	for i := range big {
		big[i] = byte(i * 31)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < k; i++ {
			if err := eps[0].Send(1, Message{Tag: int32(i), Data: []byte{byte(i)}}); err != nil {
				done <- err
				return
			}
		}
		done <- eps[0].Send(1, Message{Tag: k, Arrival: 3.5, Data: big})
	}()
	for i := 0; i < k; i++ {
		m, err := eps[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != int32(i) || m.Data[0] != byte(i) {
			t.Fatalf("msg %d out of order: tag=%d", i, m.Tag)
		}
	}
	m, err := eps[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tag != k || m.Arrival != 3.5 || len(m.Data) != len(big) {
		t.Fatalf("big frame: tag=%d arrival=%g len=%d", m.Tag, m.Arrival, len(m.Data))
	}
	for i := range big {
		if m.Data[i] != big[i] {
			t.Fatalf("big frame corrupt at byte %d", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPSelfSend(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{})
	if err := eps[1].Send(1, Message{Tag: 9, Arrival: 1.5, Data: []byte("loop")}); err != nil {
		t.Fatal(err)
	}
	m, err := eps[1].Recv(1)
	if err != nil || m.Tag != 9 || m.Arrival != 1.5 || string(m.Data) != "loop" {
		t.Fatalf("self message %+v err=%v", m, err)
	}
}

func TestTCPPeerCloseSurfacesAsPeerDead(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       500 * time.Millisecond,
	})
	start := time.Now()
	eps[1].Close()
	_, err := eps[0].Recv(1)
	elapsed := time.Since(start)
	var pd *PeerDeadError
	if !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("err=%v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("death detection took %v", elapsed)
	}
}

func TestTCPSilentPeerWatchdog(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 2, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()

	// A fake worker joins first (rank 0), completes the rendezvous, lets
	// the real rank dial it — and then never sends a single frame.
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fln.Close()
	fc, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	hello := wire.AppendUint64(nil, protocolVersion)
	hello = wire.AppendBytes(hello, []byte(fln.Addr().String()))
	if err := wire.WriteFrame(fc, tagHello, hello); err != nil {
		t.Fatal(err)
	}
	go func() { // accept the real rank's dial, swallow its ident, stay mute
		conn, err := fln.Accept()
		if err == nil {
			wire.ReadFrame(conn) // ident
		}
	}()

	ep, err := DialTCP(TCPConfig{
		Coordinator:       coord.Addr(),
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if ep.Rank() != 1 {
		t.Fatalf("real worker got rank %d, fake should have joined first", ep.Rank())
	}
	start := time.Now()
	_, err = ep.Recv(0)
	elapsed := time.Since(start)
	var pd *PeerDeadError
	if !errors.As(err, &pd) || pd.Rank != 0 {
		t.Fatalf("err=%v", err)
	}
	if !strings.Contains(err.Error(), "no frame or heartbeat") {
		t.Fatalf("watchdog cause missing: %v", err)
	}
	if elapsed < 200*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("watchdog fired after %v, want ~400ms", elapsed)
	}
}

func TestTCPSendAfterCloseErrors(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{})
	eps[0].Close()
	if err := eps[0].Send(1, Message{Tag: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err=%v", err)
	}
	if _, err := eps[0].Recv(1); err == nil {
		t.Fatal("recv on closed endpoint succeeded")
	}
}

func TestTCPInvalidRank(t *testing.T) {
	eps := startTCPCluster(t, 2, TCPConfig{})
	if err := eps[0].Send(5, Message{}); err == nil {
		t.Fatal("send to rank 5 of 2 accepted")
	}
	if _, err := eps[0].Recv(-1); err == nil {
		t.Fatal("recv from rank -1 accepted")
	}
}

// --- Coordinator ---

func TestCoordinatorToleratesStrayClients(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 2, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()

	// A port scanner connects and disconnects; a confused client speaks
	// garbage. Neither may consume a rank slot.
	if c, err := net.Dial("tcp", coord.Addr()); err == nil {
		c.Close()
	}
	if c, err := net.Dial("tcp", coord.Addr()); err == nil {
		c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		c.Close()
	}

	eps := make([]*TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = DialTCP(TCPConfig{Coordinator: coord.Addr()})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer eps[i].Close()
	}
	if eps[0].Rank()+eps[1].Rank() != 1 {
		t.Fatalf("ranks %d,%d", eps[0].Rank(), eps[1].Rank())
	}
}

func TestCoordinatorTimesOutOnMissingWorkers(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 3, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Serve() }()
	// Only one of three workers ever shows up.
	go DialTCP(TCPConfig{Coordinator: coord.Addr(), DialTimeout: 2 * time.Second})
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "workers joined") {
			t.Fatalf("err=%v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never timed out")
	}
}

func TestCoordinatorRejectsBadP(t *testing.T) {
	if _, err := NewCoordinator("127.0.0.1:0", 0, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// sendRawHello dials the coordinator and speaks a hello frame with the
// given protocol version and advertised address, bypassing DialTCP.
func sendRawHello(t *testing.T, coordAddr string, version uint64, advertise string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.AppendUint64(nil, version)
	hello = wire.AppendBytes(hello, []byte(advertise))
	if err := wire.WriteFrame(c, tagHello, hello); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoordinatorRejectsDuplicateAddress checks the duplicate-join error
// path: two workers advertising the same peer address would produce an
// address table that deadlocks the mesh, so the rendezvous must fail loudly
// instead of assigning ranks.
func TestCoordinatorRejectsDuplicateAddress(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Serve() }()

	c1 := sendRawHello(t, coord.Addr(), protocolVersion, "10.0.0.1:7000")
	defer c1.Close()
	c2 := sendRawHello(t, coord.Addr(), protocolVersion, "10.0.0.1:7000")
	defer c2.Close()

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "duplicate worker address") {
			t.Fatalf("err=%v, want duplicate worker address", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never rejected the duplicate join")
	}
}

// TestCoordinatorRejectsVersionMismatch checks that a worker speaking the
// wrong protocol version is turned away without consuming a rank slot: the
// correctly-versioned worker that follows still completes the rendezvous.
func TestCoordinatorRejectsVersionMismatch(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Serve() }()

	stale := sendRawHello(t, coord.Addr(), protocolVersion+1, "10.0.0.9:7000")
	defer stale.Close()

	ep, err := DialTCP(TCPConfig{Coordinator: coord.Addr(), DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("real worker rejected: %v", err)
	}
	defer ep.Close()
	if ep.Rank() != 0 || ep.P() != 1 {
		t.Fatalf("rank=%d p=%d", ep.Rank(), ep.P())
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rendezvous failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never finished")
	}
}

// TestCoordinatorReportsJoinCountOnTimeout pins the shape of the
// late-worker diagnostic: the error must say how many workers made it, so
// an operator knows which host to chase.
func TestCoordinatorReportsJoinCountOnTimeout(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", 3, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Serve() }()

	// Exactly one worker joins (raw hello: no mesh needed); the other two
	// never show up.
	c := sendRawHello(t, coord.Addr(), protocolVersion, "10.0.0.2:7000")
	defer c.Close()

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "(1/3 workers joined)") {
			t.Fatalf("err=%v, want (1/3 workers joined)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never timed out")
	}
}
