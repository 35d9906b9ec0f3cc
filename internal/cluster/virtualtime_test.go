package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mndmst/internal/cost"
)

// TestVirtualTimeHandComputedScenario walks a small two-rank program and
// checks every clock reading against values computed by hand from the α–β
// model, pinning down the exact timing semantics of the simulation.
func TestVirtualTimeHandComputedScenario(t *testing.T) {
	comm := cost.CommModel{Latency: 10e-6, Bandwidth: 1e6} // α=10µs, β=1µs/byte
	c := New(2, comm)
	const eps = 1e-15
	checks := func(name string, got, want float64) error {
		if math.Abs(got-want) > eps {
			t.Errorf("%s: got %.9f want %.9f", name, got, want)
		}
		return nil
	}
	_, err := c.Run(context.Background(), func(r *Rank) error {
		if r.ID() == 0 {
			// t=0: compute 100µs → now=100µs.
			r.Compute(100e-6)
			checks("r0 after compute", r.Now(), 100e-6)
			// Send 40 bytes: cost = 10µs + 40µs = 50µs → now=150µs.
			r.Send(1, 1, make([]byte, 40))
			checks("r0 after send", r.Now(), 150e-6)
			// Recv from r1: r1 sent at its t=20µs+30µs(send cost of 20B)=50µs
			// → arrival 50µs < our 150µs → no wait.
			r.Recv(1, 2)
			checks("r0 after recv", r.Now(), 150e-6)
			checks("r0 comm", r.CommTime(), 50e-6)
		} else {
			// t=0: compute 20µs.
			r.Compute(20e-6)
			// Send 20 bytes: cost = 10µs + 20µs = 30µs → now=50µs.
			r.Send(0, 2, make([]byte, 20))
			checks("r1 after send", r.Now(), 50e-6)
			// Recv from r0: message completed at 150µs → wait 100µs.
			r.Recv(0, 1)
			checks("r1 after recv", r.Now(), 150e-6)
			// comm = 30µs (send) + 100µs (wait) = 130µs.
			checks("r1 comm", r.CommTime(), 130e-6)
		}
		// Barrier: both at 150µs; dissemination cost = log2(2)*α = 10µs.
		r.Barrier()
		checks("after barrier", r.Now(), 160e-6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVirtualTimeAllreduceHandComputed pins the analytic allreduce charge.
func TestVirtualTimeAllreduceHandComputed(t *testing.T) {
	comm := cost.CommModel{Latency: 5e-6, Bandwidth: 1e6}
	c := New(4, comm)
	_, err := c.Run(context.Background(), func(r *Rank) error {
		r.Compute(float64(r.ID()) * 1e-6) // clocks at 0,1,2,3 µs
		r.Allreduce([]int64{1, 2, 3, 4}, OpSum)
		// max(now)=3µs; cost = 2*log2(4)*α + 2*(3/4)*32B*1µs/B
		//                   = 2*2*5µs + 48µs = 68µs → now = 71µs.
		want := 3e-6 + (2*2*5e-6 + 2.0*3.0/4.0*32e-6)
		if math.Abs(r.Now()-want) > 1e-15 {
			return fmt.Errorf("rank %d at %.9f want %.9f", r.ID(), r.Now(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
