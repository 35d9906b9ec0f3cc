package cluster

// Point-to-point-composed collectives. Unlike Barrier/Allreduce (which are
// priced analytically at the rendezvous), these are implemented as the
// actual message-passing algorithms an MPI library would run, so their
// simulated cost emerges from the α–β charges of the underlying sends —
// including the pipeline and tree effects.

// tag space reserved for the composed collectives.
const (
	tagBcast    = -101
	tagGather   = -102
	tagAlltoall = -103
)

// Bcast distributes root's payload to every rank with a binomial tree
// (log₂ P communication rounds). Non-root callers pass nil and receive the
// payload; the root receives its own slice back.
func (r *Rank) Bcast(root int, data []byte) []byte { //lint:testonly dead; awaits deletion together with its tests
	p := r.c.p
	if p == 1 {
		return data
	}
	// Rotate ranks so the root is virtual rank 0.
	vrank := (r.id - root + p) % p
	for offset := 1; offset < p; offset *= 2 {
		if vrank < offset {
			if peer := vrank + offset; peer < p {
				r.Send((peer+root)%p, tagBcast, data)
			}
		} else if vrank < 2*offset {
			data = r.Recv((vrank-offset+root)%p, tagBcast)
		}
	}
	return data
}

// Gather collects every rank's payload at root, returned indexed by source
// rank (root's own payload included); non-roots get nil. Direct sends, as
// MPI_Gatherv implementations do for large payloads.
func (r *Rank) Gather(root int, data []byte) [][]byte { //lint:testonly dead; awaits deletion together with its tests
	p := r.c.p
	if r.id != root {
		r.Send(root, tagGather, data)
		return nil
	}
	out := make([][]byte, p)
	out[r.id] = data
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		out[src] = r.Recv(src, tagGather)
	}
	return out
}

// Alltoall exchanges personalized payloads between all ranks: payloads[d]
// goes to rank d, and the result holds the payload received from each
// source (the rank's own payload is passed through). The schedule is the
// standard P−1-round rotation: in round k, send to (me+k) mod P and
// receive from (me−k) mod P.
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
