package serve

import (
	"container/list"
	"fmt"
	"path/filepath"
	"sync"

	"mndmst"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/obs"
)

// graphEntry is one decoded graph resident in the registry LRU.
type graphEntry struct {
	digest string
	g      *mndmst.Graph
	bytes  int64
}

// graphBytes estimates the resident size of a decoded graph: its edge
// list plus a fixed header. The estimate only needs to be proportional for
// the LRU bound to be meaningful.
func graphBytes(g *mndmst.Graph) int64 {
	return int64(g.NumEdges())*graph.EdgeBytes + 64
}

// registry loads graphs on demand and caches the decoded forms in a
// byte-bounded LRU keyed by content digest. Two specs naming the same
// content (a generator profile and a .mnd file holding its output, say)
// share one entry. Concurrent loads of the same spec are coalesced.
type registry struct {
	dir      string // "" disables file-based specs
	maxBytes int64

	mu         sync.Mutex
	byDigest   map[string]*list.Element // digest → *graphEntry element
	lru        *list.List               // front = most recently used
	bytes      int64
	specDigest map[string]string // canonical spec key → digest memo
	flights    map[string]*graphFlight

	// The registry's traffic counters; Server.Stats reads them back.
	hits, loads, evictions *obs.Counter
}

// graphFlight coalesces concurrent loads of one spec.
type graphFlight struct {
	done chan struct{}
	g    *mndmst.Graph
	err  error
}

// newRegistry builds a registry counting into reg, which must be non-nil:
// its counters are the only record of the registry's traffic.
func newRegistry(dir string, maxBytes int64, reg *obs.Registry) *registry {
	return &registry{
		dir:        dir,
		maxBytes:   maxBytes,
		byDigest:   make(map[string]*list.Element),
		lru:        list.New(),
		specDigest: make(map[string]string),
		flights:    make(map[string]*graphFlight),
		hits: reg.Counter("mndmst_serve_graph_cache_hits_total",
			"graph resolutions answered from the decoded-graph LRU"),
		loads: reg.Counter("mndmst_serve_graph_cache_loads_total",
			"graphs decoded and inserted into the LRU"),
		evictions: reg.Counter("mndmst_serve_graph_cache_evictions_total",
			"decoded graphs evicted by the byte bound"),
	}
}

// lookupLocked returns the cached graph for a digest, refreshing its LRU
// position. Caller holds r.mu.
func (r *registry) lookupLocked(digest string) *graphEntry {
	e, ok := r.byDigest[digest]
	if !ok {
		return nil
	}
	r.lru.MoveToFront(e)
	return e.Value.(*graphEntry)
}

// resolve returns the decoded graph and content digest for a spec,
// loading and caching it if needed.
func (r *registry) resolve(spec GraphSpec) (*mndmst.Graph, string, error) {
	key, err := spec.canonicalKey(r.dir)
	if err != nil {
		return nil, "", err
	}
	r.mu.Lock()
	if d, ok := r.specDigest[key]; ok {
		if ent := r.lookupLocked(d); ent != nil {
			r.hits.Inc()
			r.mu.Unlock()
			return ent.g, ent.digest, nil
		}
	}
	fl, shared := r.flights[key]
	if !shared {
		fl = &graphFlight{done: make(chan struct{})}
		r.flights[key] = fl
	}
	r.mu.Unlock()

	if shared {
		<-fl.done
		if fl.err != nil {
			return nil, "", fl.err
		}
		// The leader already inserted; count the follower as a hit.
		d := fl.g.Digest()
		r.hits.Inc()
		r.mu.Lock()
		if ent := r.lookupLocked(d); ent != nil {
			r.mu.Unlock()
			return ent.g, ent.digest, nil
		}
		r.mu.Unlock()
		return fl.g, d, nil // evicted between insert and now; still valid
	}

	g, err := spec.load(r.dir)
	fl.g, fl.err = g, err
	r.mu.Lock()
	delete(r.flights, key)
	if err != nil {
		r.mu.Unlock()
		close(fl.done)
		return nil, "", err
	}
	r.loads.Inc()
	d := g.Digest()
	r.specDigest[key] = d
	if ent := r.lookupLocked(d); ent != nil {
		// Same content already resident under another spec: reuse the
		// cached copy and drop the duplicate decode.
		r.mu.Unlock()
		close(fl.done)
		return ent.g, ent.digest, nil
	}
	e := r.lru.PushFront(&graphEntry{digest: d, g: g, bytes: graphBytes(g)})
	r.byDigest[d] = e
	r.bytes += graphBytes(g)
	for r.bytes > r.maxBytes && r.lru.Len() > 1 {
		back := r.lru.Back()
		old := back.Value.(*graphEntry)
		r.lru.Remove(back)
		delete(r.byDigest, old.digest)
		r.bytes -= old.bytes
		r.evictions.Inc()
	}
	r.mu.Unlock()
	close(fl.done)
	return g, d, nil
}

// size reports how many decoded graphs are resident and their estimated
// bytes.
func (r *registry) size() (graphs int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len(), r.bytes
}

// canonicalKey validates the spec and returns its canonical cache key.
// Exactly one of Profile, Path, Text must be set; file-based specs
// require a configured graph directory and a local relative path.
func (s GraphSpec) canonicalKey(dir string) (string, error) {
	set := 0
	for _, v := range []string{s.Profile, s.Path, s.Text} {
		if v != "" {
			set++
		}
	}
	if set != 1 {
		return "", fmt.Errorf("serve: graph spec must set exactly one of profile, path, text (got %d)", set)
	}
	switch {
	case s.Profile != "":
		if _, err := gen.ProfileByName(s.Profile); err != nil {
			return "", fmt.Errorf("serve: %w", err)
		}
		if s.Scale < 0 {
			return "", fmt.Errorf("serve: negative profile scale %g", s.Scale)
		}
		return fmt.Sprintf("profile=%s;scale=%g", s.Profile, s.scale()), nil
	case s.Path != "":
		if err := checkLocalPath(dir, s.Path); err != nil {
			return "", err
		}
		return "path=" + s.Path, nil
	default:
		if err := checkLocalPath(dir, s.Text); err != nil {
			return "", err
		}
		return fmt.Sprintf("text=%s;seed=%d", s.Text, s.Seed), nil
	}
}

// checkLocalPath enforces the file-spec sandbox: a graph directory must
// be configured, and the request path must stay inside it.
func checkLocalPath(dir, path string) error {
	if dir == "" {
		return fmt.Errorf("serve: file-based graph specs are disabled (no graph directory configured)")
	}
	if filepath.IsAbs(path) || !filepath.IsLocal(path) {
		return fmt.Errorf("serve: graph path %q escapes the graph directory", path)
	}
	return nil
}

func (s GraphSpec) scale() float64 {
	if s.Scale <= 0 {
		return 1.0
	}
	return s.Scale
}

// load decodes the spec into a graph. canonicalKey must have validated
// the spec first.
func (s GraphSpec) load(dir string) (*mndmst.Graph, error) {
	switch {
	case s.Profile != "":
		return mndmst.GenerateProfile(s.Profile, s.scale())
	case s.Path != "":
		return mndmst.LoadGraph(filepath.Join(dir, s.Path))
	default:
		return mndmst.LoadTextGraph(filepath.Join(dir, s.Text), s.Seed)
	}
}
