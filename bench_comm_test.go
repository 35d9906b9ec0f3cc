package mndmst

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/merge"
	"mndmst/internal/transport"
)

// commBenchRanks is the cluster size of the communication benchmark: the
// smallest configuration where the round-robin exchange schedule has
// multiple non-trivial rounds (3 rounds of 2 disjoint pairs).
const commBenchRanks = 4

// benchExchangeDeltas times b.N all-to-all exchanges of a payloadBytes
// delta payload per rank pair across a 4-rank loopback-TCP cluster — the
// same code path OS-separated workers take, minus the fork.
func benchExchangeDeltas(b *testing.B, payloadBytes int64) {
	b.Helper()
	const p = commBenchRanks
	nDeltas := int(payloadBytes / 8) // one Delta encodes to 8 bytes

	coord, err := transport.NewCoordinator("127.0.0.1:0", p, 20*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	go coord.Serve()
	cfg := transport.TCPConfig{Coordinator: coord.Addr()}

	eps := make([]*transport.TCP, p)
	dialErrs := make([]error, p)
	var dialWG sync.WaitGroup
	for i := 0; i < p; i++ {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			ep, err := transport.DialTCP(cfg)
			if err != nil {
				dialErrs[i] = err
				return
			}
			eps[ep.Rank()] = ep
		}(i)
	}
	dialWG.Wait()
	for _, err := range dialErrs {
		if err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}()

	active := []int{0, 1, 2, 3}
	comm := cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
	locals := make([][]merge.Delta, p)
	for rank := 0; rank < p; rank++ {
		ds := make([]merge.Delta, nDeltas)
		for i := range ds {
			ds[i] = merge.Delta{Old: int32(rank*nDeltas + i), New: int32(rank)}
		}
		locals[rank] = ds
	}
	// Each of the p ranks ships its payload to the other p-1 ranks per op.
	bytesPerOp := int64(p) * int64(p-1) * int64(nDeltas) * 8
	b.SetBytes(bytesPerOp)

	errs := make([]error, p)
	var wg sync.WaitGroup
	b.ResetTimer()
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = cluster.NewDistributed(eps[rank], comm).Run(context.Background(), func(r *cluster.Rank) error {
				for i := 0; i < b.N; i++ {
					remote, _, err := merge.ExchangeDeltas(r, active, locals[rank], 0)
					if err != nil {
						return err
					}
					if len(remote) != (p-1)*nDeltas {
						return fmt.Errorf("rank %d: %d remote deltas, want %d",
							r.ID(), len(remote), (p-1)*nDeltas)
					}
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	b.StopTimer()
	for rank, err := range errs {
		if err != nil {
			b.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// BenchmarkExchangeComm measures real wall-clock throughput of the §3.3
// all-to-all ghost-delta exchange over loopback TCP at two per-pair
// payload sizes; b.SetBytes makes `go test -bench` report it in MB/s.
func BenchmarkExchangeComm(b *testing.B) {
	b.Run("64KiB", func(b *testing.B) { benchExchangeDeltas(b, 64<<10) })
	b.Run("1MiB", func(b *testing.B) { benchExchangeDeltas(b, 1<<20) })
}
