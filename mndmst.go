// Package mndmst is a reproduction of "MND-MST: A Multi-Node Multi-Device
// Parallel Boruvka's MST Algorithm" (Panja & Vadhiyar, ICPP 2018) as a pure
// Go library.
//
// The package computes minimum spanning forests with the paper's
// divide-and-conquer algorithm on a simulated distributed-memory machine:
// the graph is 1D-partitioned across ranks (and, within a rank, across a
// CPU and a simulated GPU device), each device runs independent Boruvka
// computations under the border-vertex exception condition, and the partial
// results are combined by hierarchical ring-based merging. A
// Pregel+-style BSP baseline, sequential reference algorithms, synthetic
// workload generators matching the paper's Table 2 graphs, and the full
// experiment harness for every table and figure live behind the same API.
//
// All reported times are deterministic simulated seconds derived from work
// counters and an α–β network model (see DESIGN.md); the computation
// itself really runs, in parallel, on the host.
//
// Quick start:
//
//	g := mndmst.GenerateWebGraph(100_000, 2_000_000, 0.85, 42)
//	res, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 16})
//	if err != nil { ... }
//	fmt.Println(res.TotalWeight, res.SimSeconds)
package mndmst

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mndmst/internal/boruvka"
	"mndmst/internal/bsp"
	"mndmst/internal/chaos"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/mst"
	"mndmst/internal/obs"
	"mndmst/internal/trace"
	"mndmst/internal/transport"
)

// Graph is a weighted undirected multigraph. Edge weights are made
// globally distinct internally, so every Graph has a unique minimum
// spanning forest.
type Graph struct {
	el *graph.EdgeList
}

// NumVertices reports the vertex count.
func (g *Graph) NumVertices() int { return int(g.el.N) }

// NumEdges reports the undirected edge count (including any parallel and
// self edges, which the algorithms ignore or deduplicate).
func (g *Graph) NumEdges() int { return len(g.el.Edges) }

// Edge describes one undirected edge of a Graph.
type Edge struct {
	U, V int32
	// Weight is the 16-bit input weight; ties between equal weights are
	// broken internally by edge index.
	Weight uint16
}

// NewGraph builds a Graph from explicit edges. Endpoints must lie in
// [0, n); self loops and parallel edges are allowed.
func NewGraph(n int32, edges []Edge) (*Graph, error) {
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, len(edges))}
	if len(edges) > graph.MaxEdges {
		return nil, fmt.Errorf("mndmst: too many edges (%d > %d)", len(edges), graph.MaxEdges)
	}
	for i, e := range edges {
		el.Edges[i] = graph.Edge{U: e.U, V: e.V, W: graph.MakeWeight(e.Weight, int32(i))}
	}
	if err := el.Validate(); err != nil {
		return nil, err
	}
	return &Graph{el: el}, nil
}

// EdgeAt returns the i-th edge.
func (g *Graph) EdgeAt(i int) Edge {
	e := g.el.Edges[i]
	return Edge{U: e.U, V: e.V, Weight: graph.WeightRand(e.W)}
}

// Stats summarizes the graph as in the paper's Table 2.
type Stats struct {
	Vertices   int
	Edges      int
	AvgDegree  float64
	MaxDegree  int64
	ApproxDiam int
	Components int
}

// ComputeStats gathers graph statistics (BFS-based approximate diameter).
func (g *Graph) ComputeStats() Stats {
	st := graph.ComputeStats(graph.MustBuildCSR(g.el))
	return Stats{
		Vertices:   int(st.V),
		Edges:      int(st.E),
		AvgDegree:  st.AvgDegree,
		MaxDegree:  st.MaxDegree,
		ApproxDiam: st.ApproxDiam,
		Components: st.Components,
	}
}

// Digest returns the content digest of the graph ("sha256:..."): a hash
// of the canonical container bytes, identical for two graphs exactly when
// they have the same vertices, edge order, and weights. The serving layer
// keys its graph and result caches by this digest, so repeated jobs over
// the same content — however it was loaded or generated — share work.
func (g *Graph) Digest() string { return graph.Digest(g.el) }

// SaveGraph writes the graph to a binary container file.
func SaveGraph(path string, g *Graph) error { return graph.SaveEdgeList(path, g.el) }

// LoadGraph reads a graph written by SaveGraph. A file whose weights do not
// pack their edge's index, as older road graphs did, is rejected.
func LoadGraph(path string) (*Graph, error) {
	el, err := graph.LoadEdgeList(path)
	if err != nil {
		return nil, err
	}
	return &Graph{el: el}, nil
}

// --- Generators ---

// GenerateRoadNetwork builds a road_usa-like graph: near-planar, average
// degree ≈ 2.4, large diameter.
func GenerateRoadNetwork(n int, seed int64) *Graph {
	return &Graph{el: gen.RoadNetwork(n, seed)}
}

// GenerateWebGraph builds a web-crawl-like graph with power-law degrees
// and the given fraction of short-range (local) links.
func GenerateWebGraph(n int32, m int, locality float64, seed int64) *Graph {
	return &Graph{el: gen.WebGraph(n, m, locality, seed)}
}

// GenerateRMAT builds a Graph500-style R-MAT graph (no locality).
func GenerateRMAT(n int32, m int, seed int64) *Graph {
	return &Graph{el: gen.RMAT(n, m, seed)}
}

// GenerateProfile materializes one of the paper's Table 2 workload
// analogues ("road_usa", "gsh-2015-tpd", "arabic-2005", "it-2004",
// "sk-2005", "uk-2007") at the given scale (1.0 = reproduction size,
// ~1/1000 of the paper's graphs).
func GenerateProfile(name string, scale float64) (*Graph, error) {
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return &Graph{el: p.Generate(scale)}, nil
}

// ProfileNames lists the available Table 2 workload profiles in paper
// order.
func ProfileNames() []string {
	names := make([]string, len(gen.Profiles))
	for i, p := range gen.Profiles {
		names[i] = p.Name
	}
	return names
}

// --- Machines ---

// Machine identifies a simulated platform from the paper's §5.1.
type Machine int

// Available machine models.
const (
	// AMDCluster is the 16-node AMD Opteron 3380 cluster (8 cores/node,
	// Ethernet-class network, no GPU).
	AMDCluster Machine = iota
	// CrayXC40 is the Cray XC40 (12-core Xeon + Tesla K40 per node, Aries
	// network).
	CrayXC40
)

func (m Machine) model() cost.Machine {
	switch m {
	case CrayXC40:
		return cost.CrayXC40()
	default:
		return cost.AMDCluster()
	}
}

// String names the machine.
func (m Machine) String() string { return m.model().Name }

// --- Running the algorithms ---

// ExceptionCondition selects the indComp exception condition.
type ExceptionCondition int

// Exception conditions of the HyPar API (§4.1.2).
const (
	// BorderVertex is EXCPT_BORDER_VERTEX, the Algorithm 1 default: a
	// component whose lightest edge leaves the partition stops expanding.
	BorderVertex ExceptionCondition = iota
	// BorderEdge is EXCPT_BORDER_EDGE: components touching the partition
	// border never expand (more conservative).
	BorderEdge
)

// ClusterConfig describes how a FindMSFDistributed rank joins its cluster.
// The zero value of every field picks a sensible default except
// Coordinator, which is required.
type ClusterConfig struct {
	// Coordinator is the host:port of the rendezvous coordinator every
	// worker dials to be assigned a rank (required).
	Coordinator string
	// Listen is the local address workers accept peer connections on
	// (default "127.0.0.1:0", an ephemeral loopback port).
	Listen string
	// DialTimeout bounds each coordinator/peer dial, including retries
	// with exponential backoff (default 10s).
	DialTimeout time.Duration
	// HeartbeatInterval is the idle-link keepalive period (default 500ms).
	HeartbeatInterval time.Duration
	// PeerTimeout is how long a silent peer is tolerated before it is
	// declared dead and blocked receives fail (default 5s).
	PeerTimeout time.Duration
	// Metrics, when non-nil, receives this rank's transport counters
	// (frames/bytes per peer, send-queue high-water, dial retries) and —
	// with Chaos — injected-fault counts. One registry per process; nil
	// disables instrumentation at zero cost.
	Metrics *obs.Registry
	// RetrySeed seeds the jittered dial/rendezvous backoff schedule so a
	// failed join replays exactly under the same seed (0 derives one from
	// the clock). Give each rank a distinct seed — that is what keeps a
	// thundering herd of workers from retrying in lockstep.
	RetrySeed int64
	// Cancel, when non-nil, aborts in-flight dial and rendezvous retry
	// loops (backoff sleeps included) as soon as it is closed: a draining
	// process stops re-dialing immediately instead of sleeping out its
	// backoff. Closing it does not tear down an established transport.
	Cancel <-chan struct{}
	// Chaos, when non-nil, wraps this rank's transport endpoint in the
	// deterministic fault-injection layer: the resilience-testing mode for
	// soak tests and failure drills.
	Chaos *ChaosConfig
}

func (c ClusterConfig) tcp() transport.TCPConfig {
	return transport.TCPConfig{
		Coordinator:       c.Coordinator,
		Listen:            c.Listen,
		DialTimeout:       c.DialTimeout,
		HeartbeatInterval: c.HeartbeatInterval,
		PeerTimeout:       c.PeerTimeout,
		Metrics:           c.Metrics,
		RetrySeed:         c.RetrySeed,
		Cancel:            c.Cancel,
	}
}

// Coordinator hosts the rank-assignment rendezvous of a TCP cluster: it
// listens on a socket, waits for the configured number of workers to join,
// hands each one its rank and the peer address table, and exits. Start one
// per cluster (typically in the launching process) before workers dial in.
type Coordinator struct {
	inner *transport.Coordinator
	done  chan error
}

// StartCoordinator begins serving a ranks-worker rendezvous on addr
// (e.g. "127.0.0.1:0" for an ephemeral port). Serving happens in the
// background; call Wait to block until all workers joined.
func StartCoordinator(addr string, ranks int) (*Coordinator, error) {
	inner, err := transport.NewCoordinator(addr, ranks, 0)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{inner: inner, done: make(chan error, 1)}
	//lint:detached joined later via Coordinator.Wait's receive on c.done; buffered so Serve never leaks
	go func() { c.done <- inner.Serve() }()
	return c, nil
}

// Addr returns the address workers should dial (resolved port included).
func (c *Coordinator) Addr() string { return c.inner.Addr() }

// Wait blocks until every worker has joined and been assigned a rank (or
// the rendezvous failed).
func (c *Coordinator) Wait() error { return <-c.done }

// Close shuts the rendezvous listener down.
func (c *Coordinator) Close() error { return c.inner.Close() }

// Options configures a FindMSF run. The zero value runs on one AMD-cluster
// node, CPU only, with the paper's default tunables.
type Options struct {
	// Nodes is the number of simulated cluster nodes (default 1).
	Nodes int
	// Machine selects the platform model (default AMDCluster).
	Machine Machine
	// UseGPU enables the per-node CPU+GPU split (requires a machine with
	// an accelerator, i.e. CrayXC40).
	UseGPU bool
	// GPUsPerNode sets the accelerator count per node when UseGPU is set
	// (0 means 1).
	GPUsPerNode int
	// GroupSize is the hierarchical-merging group size (default 4).
	GroupSize int
	// Exception selects the indComp exception condition.
	Exception ExceptionCondition
	// DiminishingTermination enables the §4.3.2 early-stop strategy.
	DiminishingTermination bool
	// TopologyDriven disables the data-driven worklists (ablation).
	TopologyDriven bool
	// Contraction enables between-round graph contraction in the device
	// kernels.
	Contraction bool
	// GPUShare overrides the measured CPU:GPU ratio (0 = estimate it).
	GPUShare float64
	// NodeSpeeds optionally gives per-node relative throughput factors
	// for a heterogeneous cluster (length must equal Nodes; nil = the
	// paper's homogeneous assumption). The partitioner gives faster nodes
	// proportionally more work.
	NodeSpeeds []float64
}

// ChaosConfig injects seeded, deterministic faults into one worker's
// transport: message delays, duplicates and reordering (which a correct
// run must absorb), message loss and corruption (which must surface as
// typed errors), and a scripted crash-stop of this rank. Two workers given
// the same Seed draw the same fault schedule for the same traffic, so any
// failure replays from its logged seed.
type ChaosConfig struct {
	// Seed drives every probabilistic fault decision (required for
	// reproducibility; 0 is a valid seed).
	Seed int64
	// Per-message fault probabilities in [0, 1].
	DropProb    float64
	CorruptProb float64
	DupProb     float64
	ReorderProb float64
	DelayProb   float64
	// DelayMax bounds one injected delay (default 2ms).
	DelayMax time.Duration
	// RecvTimeout bounds every receive so injected loss surfaces as a
	// typed error instead of a hang (default 30s; must exceed DelayMax).
	RecvTimeout time.Duration
	// CrashStep, when > 0, crash-stops this worker at its CrashStep-th
	// transport operation: the process's endpoint dies mid-protocol and
	// every peer must fail over cleanly.
	CrashStep uint64
}

// chaosRecvTimeoutDefault bounds receives under chaos when unset.
const chaosRecvTimeoutDefault = 30 * time.Second

func (c *ChaosConfig) wrap(ep transport.Transport, reg *obs.Registry) transport.Transport {
	cfg := chaos.Config{
		Seed:        c.Seed,
		DropProb:    c.DropProb,
		CorruptProb: c.CorruptProb,
		DupProb:     c.DupProb,
		ReorderProb: c.ReorderProb,
		DelayProb:   c.DelayProb,
		DelayMax:    c.DelayMax,
		RecvTimeout: c.RecvTimeout,
		Metrics:     reg,
	}
	if cfg.RecvTimeout <= 0 {
		cfg.RecvTimeout = chaosRecvTimeoutDefault
	}
	if c.CrashStep > 0 {
		cfg.Crashes = []chaos.Crash{{Rank: ep.Rank(), Step: c.CrashStep}}
	}
	return chaos.WrapOne(ep, cfg)
}

// config maps the options onto the runtime configuration. Unlike
// hypar.DefaultConfig, which the paper suite runs, it turns on the
// filter-Borůvka extension (hypar.Config.Filter).
func (o Options) config() hypar.Config {
	cfg := hypar.DefaultConfig()
	cfg.Filter = true
	if o.GroupSize > 0 {
		cfg.GroupSize = o.GroupSize
	}
	if o.Exception == BorderEdge {
		cfg.Excpt = boruvka.ExcptBorderEdge
	}
	cfg.DiminishingTermination = o.DiminishingTermination
	cfg.DataDriven = !o.TopologyDriven
	cfg.Contract = o.Contraction
	cfg.GPUShare = o.GPUShare
	cfg.GPUsPerNode = o.GPUsPerNode
	return cfg
}

func (o Options) nodes() int {
	if o.Nodes < 1 {
		return 1
	}
	return o.Nodes
}

// Fingerprint returns the canonical identity of every result-relevant
// option as a short string: two Options with equal fingerprints produce
// identical forests and simulated metrics on the same Graph. The measured
// fields, Result.WallSeconds and PhaseTime.Wall, differ run to run.
// Defaults are normalized first, so the zero Options and an
// explicit {Nodes: 1, GroupSize: 4} fingerprint identically. The serving
// layer combines this fingerprint with the graph digest as its result-cache
// key.
func (o Options) Fingerprint() string {
	machine := "amd"
	if o.Machine == CrayXC40 {
		machine = "cray"
	}
	gpus := 0
	if o.UseGPU {
		gpus = o.GPUsPerNode
		if gpus < 1 {
			gpus = 1
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v1;nodes=%d;machine=%s;gpus=%d;group=%d;excpt=%d;dimin=%t;topo=%t;contract=%t;gpushare=%g",
		o.nodes(), machine, gpus, o.config().GroupSize, o.Exception,
		o.DiminishingTermination, o.TopologyDriven, o.Contraction, o.GPUShare)
	for _, s := range o.NodeSpeeds {
		fmt.Fprintf(&b, ";speed=%g", s)
	}
	return b.String()
}

// PhaseTime is the per-phase time split of a run.
type PhaseTime struct {
	Phase   string
	Compute float64
	Comm    float64
	// Wall is the measured real elapsed time of the phase (max across
	// ranks). In-process it is elapsed time of rank goroutines sharing the
	// host's cores, not per-rank CPU time.
	Wall float64
}

// Result describes a computed minimum spanning forest, the simulated
// execution metrics of the run that produced it, and that run's measured
// wall times.
type Result struct {
	// EdgeIDs are the indices (into the input edge list) of the forest
	// edges, ascending.
	EdgeIDs []int32
	// TotalWeight is the sum of the packed distinct weights — comparable
	// across algorithms on the same Graph.
	TotalWeight uint64
	// Components is the number of connected components spanned.
	Components int
	// SimSeconds is the simulated makespan of the run.
	SimSeconds float64
	// CommSeconds is the maximum per-rank communication time.
	CommSeconds float64
	// ComputeSeconds is the maximum per-rank compute time.
	ComputeSeconds float64
	// BytesSent and MessagesSent total across all ranks.
	BytesSent    int64
	MessagesSent int64
	// Phases is the per-phase breakdown (max across ranks).
	Phases []PhaseTime
	// WallSeconds is the measured real elapsed runtime (max across ranks);
	// zero for sequential and shared-memory results, which run no cluster.
	WallSeconds float64
	// Rank is the executing rank for multi-process runs (always 0 for
	// in-process runs, which compute every rank locally).
	Rank int
	// Root reports whether this Result carries the forest: true for
	// in-process runs and for rank 0 of a multi-process run. Non-root
	// workers return metrics only (nil EdgeIDs).
	Root bool
	// Trace gives access to the full per-rank accounting of the run (nil
	// for sequential results).
	Trace *RunTrace
}

// RunTrace exposes the per-rank simulated-run accounting in
// machine-readable (JSONL) and human-readable (Profile) forms.
type RunTrace struct {
	rep *cluster.Report
}

// WriteJSONL emits one JSON record per rank and per (rank, phase) pair.
func (t *RunTrace) WriteJSONL(w io.Writer) error { return trace.WriteJSONL(w, t.rep) }

// Ranks reports how many ranks the trace covers: the cluster size for an
// in-process run and for rank 0 of a multi-process run, which gathers
// every rank's report, and one for any other rank.
func (t *RunTrace) Ranks() int { return len(t.rep.Ranks) }

// Profile renders an aligned text view with a load-balance summary.
func (t *RunTrace) Profile() string { return trace.Profile(t.rep) }

// Records flattens the per-rank accounting into the record sequence the
// JSONL export writes — the form the serving layer embeds in HTTP job
// responses. The record type lives in internal/trace, so this accessor is
// usable only inside the module (the serve layer and the commands).
func (t *RunTrace) Records() []trace.Record { return trace.Records(t.rep) }

// Publish exports the run's totals into a metrics registry as the
// mndmst_run_* gauges (makespan, per-phase seconds, traffic) — the
// live-scrape form of the same accounting. No-op on a nil registry.
func (t *RunTrace) Publish(reg *obs.Registry) { trace.Publish(reg, t.rep) }

func resultFromReport(rep *cluster.Report) *Result {
	res := &Result{
		SimSeconds:     rep.ExecutionTime(),
		CommSeconds:    rep.CommTime(),
		ComputeSeconds: rep.ComputeTime(),
		BytesSent:      rep.TotalBytes(),
		MessagesSent:   rep.TotalMsgs(),
		WallSeconds:    rep.WallTime(),
	}
	for _, name := range rep.PhaseNames() {
		c, m := rep.PhaseTime(name)
		res.Phases = append(res.Phases, PhaseTime{
			Phase: name, Compute: c, Comm: m, Wall: rep.PhaseWall(name),
		})
	}
	res.Trace = &RunTrace{rep: rep}
	return res
}

func resultFromForest(f *mst.Forest, rep *cluster.Report) *Result {
	res := resultFromReport(rep)
	res.EdgeIDs = f.EdgeIDs
	res.TotalWeight = f.TotalWeight
	res.Components = f.Components
	res.Root = true
	return res
}

// FindMSF computes the minimum spanning forest of g with the MND-MST
// algorithm under the given options, every rank a goroutine of this
// process. FindMSFDistributed runs one rank of a multi-process cluster
// instead. On a graph with at least five edges per vertex both go one
// step beyond the paper (filter-Borůvka): the ranks solve the edges at or
// below a sampled pivot weight first, then only the heavier edges that
// join two different light components. The forest is the same; the
// simulated metrics are those of the whole filtered run.
func FindMSF(g *Graph, opts Options) (*Result, error) {
	return FindMSFContext(context.Background(), g, opts)
}

// FindMSFContext is FindMSF bounded by a context. A context that is
// already done starts no rank. One that fires mid-run aborts the cluster:
// every rank stops at its next send, receive or collective, and the call
// returns, once all of them have, an error matching ctx.Err() under
// errors.Is. Nothing keeps running after the call returns.
func FindMSFContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	machine := opts.Machine.model()
	if len(opts.NodeSpeeds) > 0 {
		if len(opts.NodeSpeeds) != opts.nodes() {
			return nil, fmt.Errorf("mndmst: NodeSpeeds has %d entries for %d nodes", len(opts.NodeSpeeds), opts.nodes())
		}
		machine.NodeSpeeds = opts.NodeSpeeds
	}
	res, err := core.Run(ctx, g.el, opts.nodes(), machine, opts.config(), opts.UseGPU)
	if err != nil {
		return nil, err
	}
	return resultFromForest(res.Forest, res.Report), nil
}

// FindMSFDistributed runs this process's rank of a multi-process MND-MST
// computation over real TCP sockets. Every worker of the cluster must call
// it with the identical graph and options; the cluster size is fixed by
// the coordinator (Options.Nodes is ignored). Rank 0 returns the forest
// plus the gathered P-rank report — with both simulated clocks and real
// wall-clock phase times — while other ranks return their local metrics
// with Root == false and no forest.
func FindMSFDistributed(g *Graph, opts Options, cfg ClusterConfig) (*Result, error) {
	tcpEP, err := transport.DialTCP(cfg.tcp())
	if err != nil {
		return nil, fmt.Errorf("mndmst: join cluster: %w", err)
	}
	var ep transport.Transport = tcpEP
	if cfg.Chaos != nil {
		ep = cfg.Chaos.wrap(ep, cfg.Metrics)
	}
	defer ep.Close()
	machine := opts.Machine.model()
	if len(opts.NodeSpeeds) > 0 {
		if len(opts.NodeSpeeds) != ep.P() {
			return nil, fmt.Errorf("mndmst: NodeSpeeds has %d entries for %d ranks", len(opts.NodeSpeeds), ep.P())
		}
		machine.NodeSpeeds = opts.NodeSpeeds
	}
	res, err := core.RunDistributed(context.Background(), g.el, ep, machine, opts.config(), opts.UseGPU)
	if err != nil {
		return nil, err
	}
	var out *Result
	if res.Forest != nil {
		out = resultFromForest(res.Forest, res.Report)
	} else {
		out = resultFromReport(res.Report)
	}
	out.Rank = ep.Rank()
	return out, nil
}

// FindMSFBSP computes the same forest with the Pregel+-style BSP baseline
// (CPU only).
func FindMSFBSP(g *Graph, opts Options) (*Result, error) {
	return FindMSFBSPContext(context.Background(), g, opts)
}

// FindMSFBSPContext is FindMSFBSP bounded by a context, with the
// cancellation of FindMSFContext.
func FindMSFBSPContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	res, err := bsp.Run(ctx, g.el, opts.nodes(), opts.Machine.model())
	if err != nil {
		return nil, err
	}
	return resultFromForest(res.Forest, res.Report), nil
}

// FindMSFSequential computes the forest with sequential filter-Kruskal,
// the fastest exact algorithm in the repository. Weights are distinct, so
// the forest is the one every parallel configuration must match exactly.
func FindMSFSequential(g *Graph) *Result {
	f := mst.FilterKruskal(g.el)
	return &Result{
		EdgeIDs:     f.EdgeIDs,
		TotalWeight: f.TotalWeight,
		Components:  f.Components,
		Root:        true,
	}
}

// Verify checks that res is exactly the minimum spanning forest of g.
func Verify(g *Graph, res *Result) error {
	f := &mst.Forest{EdgeIDs: res.EdgeIDs, TotalWeight: res.TotalWeight, Components: res.Components}
	return mst.VerifyForest(g.el, f)
}

// FindMSFShared computes the minimum spanning forest by running the
// parallel Boruvka device kernel once over the whole graph in shared
// memory: no cluster, no partitioning, no cost model, so the result
// carries no simulated times or traffic. It is the kernel the distributed
// algorithm runs on each device, exposed so that kernel can be checked
// and timed on its own.
func FindMSFShared(g *Graph) (*Result, error) {
	if err := g.el.Validate(); err != nil {
		return nil, err
	}
	l := boruvka.NewWindow(g.el, g.el.Degrees(), 0, g.el.N)
	res := boruvka.Run(l, boruvka.DefaultOptions())
	return &Result{
		EdgeIDs:     res.ChosenIDs,
		TotalWeight: res.ChosenWeight,
		Components:  res.Components,
		Root:        true,
	}, nil
}

// LoadTextGraph reads a SNAP-style whitespace edge list ("u v [weight]"
// per line, '#'/'%' comments). Vertex ids are compacted to a dense range;
// missing weights are drawn deterministically from seed.
func LoadTextGraph(path string, seed int64) (*Graph, error) {
	el, err := graph.LoadTextEdgeList(path, seed)
	if err != nil {
		return nil, err
	}
	return &Graph{el: el}, nil
}

// SaveTextGraph writes the graph in the SNAP-style text format.
func SaveTextGraph(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteTextEdgeList(f, g.el); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// GenerateBarabasiAlbert builds a preferential-attachment graph: each new
// vertex attaches k edges to existing vertices with probability
// proportional to degree.
func GenerateBarabasiAlbert(n int32, k int, seed int64) *Graph {
	return &Graph{el: gen.BarabasiAlbert(n, k, seed)}
}

// GenerateWattsStrogatz builds a small-world ring lattice (k nearest
// neighbours, rewired with probability beta).
func GenerateWattsStrogatz(n int32, k int, beta float64, seed int64) *Graph {
	return &Graph{el: gen.WattsStrogatz(n, k, beta, seed)}
}
