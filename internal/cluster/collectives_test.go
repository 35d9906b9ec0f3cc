package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		c := New(p, testComm())
		_, err := c.Run(context.Background(), func(r *Rank) error {
			out := make([][]byte, p)
			for d := 0; d < p; d++ {
				out[d] = []byte(fmt.Sprintf("%d->%d", r.ID(), d))
			}
			in := r.Alltoall(out)
			for src := 0; src < p; src++ {
				want := fmt.Sprintf("%d->%d", src, r.ID())
				if string(in[src]) != want {
					return fmt.Errorf("rank %d from %d: got %q want %q", r.ID(), src, in[src], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallDeterministicTiming(t *testing.T) {
	run := func() float64 {
		c := New(5, testComm())
		rep, err := c.Run(context.Background(), func(r *Rank) error {
			out := make([][]byte, 5)
			for d := range out {
				out[d] = make([]byte, 100*(r.ID()+1))
			}
			r.Alltoall(out)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecutionTime()
	}
	ref := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != ref {
			t.Fatalf("run %d: %g vs %g", i, got, ref)
		}
	}
}

// TestAllreduceReducesInPlace pins the MPI_IN_PLACE contract: Allreduce
// and StatAllreduce overwrite the caller's vector with the reduction and
// return it, on the protocol root and on every other rank.
func TestAllreduceReducesInPlace(t *testing.T) {
	for _, p := range []int{1, 4} {
		sum := int64(p * (p - 1) / 2)
		_, err := New(p, testComm()).Run(context.Background(), func(r *Rank) error {
			id := int64(r.ID())
			for _, call := range []struct {
				name string
				fn   func([]int64, ReduceOp) []int64
			}{{"Allreduce", r.Allreduce}, {"StatAllreduce", r.StatAllreduce}} {
				vals := []int64{id, 1, -id}
				got := call.fn(vals, OpSum)
				if &got[0] != &vals[0] {
					return fmt.Errorf("rank %d: %s result does not alias vals", r.ID(), call.name)
				}
				if want := []int64{sum, int64(p), -sum}; !slices.Equal(vals, want) {
					return fmt.Errorf("rank %d: %s reduced to %v, want %v", r.ID(), call.name, vals, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestRankFailureUnblocksCollectives fails one rank — the protocol root,
// then the last rank — while its peers wait in a collective it will never
// enter. The abort must reach them through the transport: Run returns
// promptly, reporting the failed rank's cause first and every peer as an
// AbortError cascade of it.
func TestRankFailureUnblocksCollectives(t *testing.T) {
	const p = 4
	boom := errors.New("boom")
	for _, failed := range []int{0, p - 1} {
		for _, coll := range []struct {
			name  string
			enter func(r *Rank)
		}{
			{"Barrier", func(r *Rank) { r.Barrier() }},
			{"Allreduce", func(r *Rank) { r.Allreduce([]int64{1, 2}, OpSum) }},
		} {
			t.Run(fmt.Sprintf("rank%d/%s", failed, coll.name), func(t *testing.T) {
				cascades := make([]error, p)
				done := make(chan error, 1)
				go func() {
					_, err := New(p, testComm()).Run(context.Background(), func(r *Rank) error {
						if r.ID() == failed {
							// Fail only once every peer is at the collective.
							for src := 0; src < p; src++ {
								if src != failed {
									r.Recv(src, 1)
								}
							}
							return boom
						}
						defer func() {
							if e := recover(); e != nil {
								if cf, ok := e.(commFailure); ok {
									cascades[r.ID()] = cf.err
								}
								panic(e)
							}
						}()
						r.Send(failed, 1, nil)
						coll.enter(r)
						return fmt.Errorf("rank %d completed a collective rank %d never entered", r.ID(), failed)
					})
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("Run did not return after a rank failed in a collective")
				}
				joined, ok := err.(interface{ Unwrap() []error })
				if !ok {
					t.Fatalf("Run error %v is not a join", err)
				}
				errs := joined.Unwrap()
				if len(errs) != 2 || !errors.Is(errs[0], boom) ||
					!strings.Contains(errs[0].Error(), fmt.Sprintf("rank %d:", failed)) ||
					!strings.Contains(errs[1].Error(), fmt.Sprintf("%d more rank(s)", p-1)) {
					t.Fatalf("want rank %d's cause then %d cascades, got %v", failed, p-1, err)
				}
				for id, cerr := range cascades {
					if id == failed {
						continue
					}
					var ae *AbortError
					if !errors.As(cerr, &ae) || ae.Rank != failed || !errors.Is(ae.Cause, boom) {
						t.Errorf("rank %d failed with %v, want an AbortError cascade of rank %d", id, cerr, failed)
					}
				}
			})
		}
	}
}

// FuzzCollectPayload feeds arbitrary bytes to the collective frame
// decoder, which reads frames straight off the transport: every input must
// decode without copying or fail as a commFailure, and a decoded frame
// must re-encode to the same bytes.
func FuzzCollectPayload(f *testing.F) {
	f.Add(encodeCollect(0.5, nil))
	f.Add(encodeCollect(2, []int64{}))
	f.Add(encodeCollect(1e-3, []int64{1, -2, 1 << 62}))
	f.Add(encodeCollect(1, []int64{7})[:30])
	// A header announcing 2^61 values in an empty payload.
	f.Add(append(encodeCollect(0, []int64{})[:16], 0, 0, 0, 0, 0, 0, 0, 0x20))

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			now     float64
			raw     []byte
			hasVals bool
		)
		err := func() (err error) {
			defer func() {
				if e := recover(); e != nil {
					cf, ok := e.(commFailure)
					if !ok {
						panic(e)
					}
					err = cf.err
				}
			}()
			now, raw, hasVals = decodeCollect(data)
			return nil
		}()
		if err != nil {
			if !errors.Is(err, errCollectFrame) {
				t.Fatalf("decode failed with untyped error %v", err)
			}
			return
		}
		if len(raw) > 0 && &raw[0] != &data[collectHeaderLen] {
			t.Fatal("decoded values do not alias the frame")
		}
		var vals []int64
		if hasVals {
			vals = make([]int64, len(raw)/8)
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		if round := encodeCollect(now, vals); !bytes.Equal(round, data) {
			t.Fatalf("decoded frame re-encodes to %x, want %x", round, data)
		}
	})
}

// TestGatherRankOrder pins Gather's result: every rank's payload at rank
// 0 in rank order, rank 0's own included, and nil on every other rank.
func TestGatherRankOrder(t *testing.T) {
	for _, p := range []int{1, 3, 5} {
		_, err := New(p, testComm()).Run(context.Background(), func(r *Rank) error {
			in := r.Gather([]byte(fmt.Sprintf("from %d", r.ID())))
			if r.ID() != 0 {
				if in != nil {
					return fmt.Errorf("rank %d got %q off the root", r.ID(), in)
				}
				return nil
			}
			if len(in) != p {
				return fmt.Errorf("root got %d payloads, want %d", len(in), p)
			}
			for src, buf := range in {
				if want := fmt.Sprintf("from %d", src); string(buf) != want {
					return fmt.Errorf("root slot %d: got %q want %q", src, buf, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestGatherChargesLikeSends pins that Gather costs exactly what the same
// sends made by hand cost: per-rank bytes, messages and comm seconds.
func TestGatherChargesLikeSends(t *testing.T) {
	const p = 4
	payload := func(id int) []byte { return make([]byte, 1000*id+8) }
	run := func(fn func(r *Rank)) *Report {
		rep, err := New(p, testComm()).Run(context.Background(), func(r *Rank) error {
			r.Compute(1e-4 * float64(p-r.ID()))
			fn(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	got := run(func(r *Rank) { r.Gather(payload(r.ID())) })
	want := run(func(r *Rank) {
		if r.ID() != 0 {
			r.Send(0, tagGather, payload(r.ID()))
			return
		}
		for src := 1; src < p; src++ {
			r.Recv(src, tagGather)
		}
	})
	for i := range want.Ranks {
		g, w := got.Ranks[i], want.Ranks[i]
		if g.BytesSent != w.BytesSent || g.MsgsSent != w.MsgsSent || g.Comm != w.Comm || g.Total != w.Total {
			t.Errorf("rank %d: Gather sent %d bytes, %d msgs, comm %v s, clock %v s; by hand %d, %d, %v, %v",
				i, g.BytesSent, g.MsgsSent, g.Comm, g.Total, w.BytesSent, w.MsgsSent, w.Comm, w.Total)
		}
	}
}

// TestExchangeTypedLists pins Exchange's contract: out[d] arrives at rank
// d decoded, the rank's own slot is nil, and an empty payload decodes as
// no values without reaching the decoder.
func TestExchangeTypedLists(t *testing.T) {
	const p = 4
	encode := func(vals []int64) []byte {
		var buf []byte
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		return buf
	}
	decode := func(buf []byte) ([]int64, error) {
		if len(buf) == 0 {
			return nil, errors.New("decoder reached with an empty payload")
		}
		vals := make([]int64, len(buf)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		return vals, nil
	}
	rep, err := New(p, testComm()).Run(context.Background(), func(r *Rank) error {
		// Rank s sends d copies of s to rank d: nothing to rank 0.
		out := make([][]int64, p)
		for d := range out {
			for i := 0; i < d; i++ {
				out[d] = append(out[d], int64(r.ID()))
			}
		}
		in, err := Exchange(r, out, encode, decode)
		if err != nil {
			return err
		}
		for src, vals := range in {
			var want []int64
			if src != r.ID() {
				for i := 0; i < r.ID(); i++ {
					want = append(want, int64(src))
				}
			}
			if !slices.Equal(vals, want) || (want == nil && vals != nil) {
				return fmt.Errorf("rank %d from %d: got %v want %v", r.ID(), src, vals, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank sends p-1 messages; an empty list costs no bytes.
	for _, rs := range rep.Ranks {
		wantBytes := int64(8 * (0 + 1 + 2 + 3 - rs.Rank))
		if rs.MsgsSent != p-1 || rs.BytesSent != wantBytes {
			t.Errorf("rank %d sent %d msgs, %d bytes; want %d, %d", rs.Rank, rs.MsgsSent, rs.BytesSent, p-1, wantBytes)
		}
	}
}

// TestExchangeSurfacesDecodeError pins that a decoder failure comes back
// from Exchange as an error naming the source rank.
func TestExchangeSurfacesDecodeError(t *testing.T) {
	bad := errors.New("bad payload")
	_, err := New(2, testComm()).Run(context.Background(), func(r *Rank) error {
		out := [][]byte{{1}, {2}}
		in, err := Exchange(r, out, func(b []byte) []byte { return b }, func(b []byte) ([]byte, error) {
			if b[0] == 2 {
				return nil, bad
			}
			return b, nil
		})
		if r.ID() == 0 {
			if err != nil || !bytes.Equal(in[1], []byte{1}) {
				return fmt.Errorf("rank 0: got %v, %v", in, err)
			}
			return nil
		}
		if !errors.Is(err, bad) || !strings.Contains(err.Error(), "from rank 0") {
			return fmt.Errorf("rank 1: error %v, want the decoder's naming rank 0", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
