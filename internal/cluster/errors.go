package cluster

import (
	"errors"
	"fmt"
	"reflect"

	"mndmst/internal/transport"
)

// RankLostError reports a communication operation that failed because a
// peer rank is gone — dead, unreachable, crashed, or closed while messages
// were still expected. It is how a transport-level PeerDeadError (or any
// other endpoint failure) propagates through collectives and the merge
// ring as a typed, rank-attributed error instead of a hang or an opaque
// string. Rank names the lost peer when the cause identifies one, else the
// peer the failing operation addressed.
type RankLostError struct {
	// Rank is the rank this operation lost contact with.
	Rank int
	// Op describes the failing operation ("send", "recv", "collective").
	Op string
	// Cause is the underlying transport error.
	Cause error
}

func (e *RankLostError) Error() string {
	return fmt.Sprintf("cluster: %s: rank %d lost: %v", e.Op, e.Rank, e.Cause)
}

func (e *RankLostError) Unwrap() error { return e.Cause }

// AbortError marks a rank error that is a *cascade* of a cluster abort:
// the rank did not fail on its own, its communication was torn down
// because rank Rank had already failed with Cause. Run's error join keeps
// root causes and summarizes cascades, so a real peer death on one rank is
// never buried under P-1 copies of its fallout.
type AbortError struct {
	// Rank is the rank whose failure triggered the abort.
	Rank int
	// Cause is that rank's original error.
	Cause error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("cluster: run aborted by rank %d: %v", e.Rank, e.Cause)
}

func (e *AbortError) Unwrap() error { return e.Cause }

// rankLost wraps a transport operation failure as a RankLostError
// attributed to the responsible rank: the one the transport says is dead
// if it names one, otherwise the peer the operation addressed.
func rankLost(op string, peer int, err error) *RankLostError {
	var pde *transport.PeerDeadError
	if errors.As(err, &pde) {
		peer = pde.Rank
	}
	return &RankLostError{Rank: peer, Op: op, Cause: err}
}

// sentinelType is the concrete type of errors.New values; such sentinels
// (ErrClosed, ErrPayloadBound, ...) are deliberately shared across
// unrelated failures, so instance identity means nothing for them.
var sentinelType = reflect.TypeOf(errors.New(""))

// errInstances walks err's Unwrap tree collecting the pointer-typed error
// instances whose identity is meaningful — everything except errors.New
// sentinels. Two rank errors sharing such an instance (a sticky queue
// failure handed to several receivers, one abort cause fanned out to every
// endpoint) are double reports of one event.
func errInstances(err error, out []error) []error {
	for err != nil {
		t := reflect.TypeOf(err)
		if t != nil && t.Kind() == reflect.Ptr && t != sentinelType {
			out = append(out, err)
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				out = errInstances(e, out)
			}
			return out
		default:
			return out
		}
	}
	return out
}

// joinRankErrors aggregates per-rank failures into one error without
// double-reporting: cascades (errors marked by an AbortError in their
// chain) are summarized behind the root cause, and primaries whose chains
// share an error *instance* with an already-kept primary — the transport's
// close-drain and retry paths hand one sticky failure to every blocked
// caller — are deduplicated by identity before errors.Join. errors.Is and
// errors.As still see every retained cause.
func joinRankErrors(ids []int, errs []error) error {
	type rerr struct {
		rank int
		err  error
	}
	var primaries, cascades []rerr
	for i, err := range errs {
		if err == nil {
			continue
		}
		var ae *AbortError
		if errors.As(err, &ae) {
			cascades = append(cascades, rerr{ids[i], err})
		} else {
			primaries = append(primaries, rerr{ids[i], err})
		}
	}
	if len(primaries) == 0 && len(cascades) == 0 {
		return nil
	}
	if len(primaries) == 0 {
		// Every failure is a cascade (the aborting rank itself returned
		// nil, e.g. a test that swallowed its own error): promote the first
		// so the cause is never lost.
		primaries, cascades = cascades[:1], cascades[1:]
	}
	seen := make(map[error]struct{})
	var kept []error
	dropped := 0
	for _, pe := range primaries {
		ids := errInstances(pe.err, nil)
		shared := false
		for _, inst := range ids {
			if _, ok := seen[inst]; ok {
				shared = true
				break
			}
		}
		if shared {
			dropped++
			continue
		}
		for _, inst := range ids {
			seen[inst] = struct{}{}
		}
		kept = append(kept, fmt.Errorf("cluster: rank %d: %w", pe.rank, pe.err))
	}
	if n := len(cascades) + dropped; n > 0 {
		kept = append(kept, fmt.Errorf("cluster: %d more rank(s) failed from the same cause (deduplicated)", n))
	}
	return errors.Join(kept...)
}
