package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst/internal/obs"
)

// startInstrumentedPair builds a 2-rank TCP cluster where each endpoint
// carries its own registry (registries are per-process: sharing one
// across ranks would merge the per-peer series).
func startInstrumentedPair(t *testing.T, base TCPConfig) ([]*TCP, []*obs.Registry) {
	t.Helper()
	const p = 2
	coord, err := NewCoordinator("127.0.0.1:0", p, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	servErr := make(chan error, 1)
	go func() { servErr <- coord.Serve() }()

	regs := make([]*obs.Registry, p)
	dialed := make([]*TCP, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		regs[i] = obs.NewRegistry()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := base
			cfg.Coordinator = coord.Addr()
			cfg.Metrics = regs[i]
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
	// Reindex by rank, registries alongside.
	eps := make([]*TCP, p)
	byRank := make([]*obs.Registry, p)
	for i, ep := range dialed {
		eps[ep.Rank()] = ep
		byRank[ep.Rank()] = regs[i]
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return eps, byRank
}

func sampleRegistry(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	return got
}

// TestTCPMetricsSymmetry: after a ping-pong exchange, rank 0's per-peer
// send counters must equal rank 1's receive counters exactly — byte
// counting includes the arrival header on both sides — and the send-queue
// high-water mark must have moved.
func TestTCPMetricsSymmetry(t *testing.T) {
	eps, regs := startInstrumentedPair(t, TCPConfig{})

	const rounds = 5
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := eps[0].Send(1, Message{Tag: int32(i), Data: []byte(fmt.Sprintf("ping-%d-with-some-payload", i))}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			if _, err := eps[0].Recv(1); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := eps[1].Recv(0); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if err := eps[1].Send(0, Message{Tag: int32(i), Data: []byte("pong")}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	// A writer goroutine counts a frame after its write returns, so the
	// peer can reply before the count lands. Close flushes every queue,
	// and a frame completes only after it is counted.
	for _, ep := range eps {
		ep.Close()
	}

	m0 := sampleRegistry(t, regs[0])
	m1 := sampleRegistry(t, regs[1])

	if got := m0[`mndmst_transport_frames_sent_total{peer="1"}`]; got != rounds {
		t.Errorf("rank 0 frames sent = %g, want %d", got, rounds)
	}
	if got := m1[`mndmst_transport_frames_received_total{peer="0"}`]; got != rounds {
		t.Errorf("rank 1 frames received = %g, want %d", got, rounds)
	}
	sent := m0[`mndmst_transport_bytes_sent_total{peer="1"}`]
	recv := m1[`mndmst_transport_bytes_received_total{peer="0"}`]
	if sent == 0 || sent != recv {
		t.Errorf("bytes sent by 0 (%g) != bytes received by 1 (%g)", sent, recv)
	}
	backSent := m1[`mndmst_transport_bytes_sent_total{peer="0"}`]
	backRecv := m0[`mndmst_transport_bytes_received_total{peer="1"}`]
	if backSent == 0 || backSent != backRecv {
		t.Errorf("bytes sent by 1 (%g) != bytes received by 0 (%g)", backSent, backRecv)
	}
	if hw := m0[`mndmst_transport_sendq_highwater_bytes{peer="1"}`]; hw <= 0 {
		t.Errorf("send-queue high-water = %g, want > 0", hw)
	}
}

// TestTCPMetricsHeartbeats: an idle link proves liveness with heartbeats,
// and the counter sees them.
func TestTCPMetricsHeartbeats(t *testing.T) {
	_, regs := startInstrumentedPair(t, TCPConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		PeerTimeout:       5 * time.Second,
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := sampleRegistry(t, regs[0])
		if m[`mndmst_transport_heartbeats_sent_total{peer="1"}`] >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no heartbeats counted on an idle link: %v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
