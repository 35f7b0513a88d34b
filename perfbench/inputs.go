package main

import (
	"math/rand"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Graph shape shared by every workload: the citation-style
// preferential-attachment graph simrankd is sized for in the serving
// benchmarks (about 8k edges).
const (
	graphNodes  = 2048
	graphOutDeg = 4
	topK        = 10
	// churnPool is the number of PA-oriented edges the write streams
	// toggle. Large enough that the update cost averages over many graph
	// regions, small enough that the number of present pool edges settles
	// (at half the pool, within about a pool's worth of toggles) early in
	// a run.
	churnPool = 1024
	// readStreamLen is how many read ops are drawn up front; a client
	// that exhausts them wraps around (the draws are i.i.d.).
	readStreamLen = 1 << 20
)

// workload is one traffic mix. Every workload serves the same graph.
type workload struct {
	name string
	// reads and writes say which closed-loop clients run: a reader
	// sending GET /topkfor (and /similarity with share simShare), a
	// writer sending acked single-update POST /updates?wait=1.
	reads, writes bool
	// zipf skews read keys Zipf(s=1.1) over the nodes ranked by
	// in-degree; otherwise keys are uniform.
	zipf     bool
	simShare float64
	// cacheRows sizes the engine's top-k cache (simrankd -topk-cache).
	cacheRows int
	// wal enables a write-ahead log with simrankd's default fsync policy.
	wal bool
}

// leadWrites reports whether the workload's latency metrics are those of
// its acked writes: only on a write-only workload. Where a reader runs,
// the reads lead. On mixed-durable a few percent of the acks fall off a
// cliff (see README.md), which puts the write p99 at a point that moves
// with the host rather than the code; what that workload gates is the
// writes' cost to the reads that share the cores.
func (w workload) leadWrites() bool { return w.writes && !w.reads }

var workloads = []workload{
	{
		name:  "read-hot",
		reads: true, zipf: true, simShare: 0.2, cacheRows: 4096,
	},
	{
		name:   "write-churn",
		writes: true, cacheRows: 4096,
	},
	{
		name:  "mixed-durable",
		reads: true, writes: true, cacheRows: graphNodes / 4, wal: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives an independent stream seed from the run seed, so the
// graph, the read keys and the churn pool never share a generator.
func subSeed(seed int64, tag uint64) int64 {
	z := uint64(seed) + tag*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// readOp is one read request: GET /topkfor?node=a when b < 0, else
// GET /similarity?a=a&b=b.
type readOp struct {
	a, b int32
}

// inputs is everything a run needs, drawn from the seed before set-up.
type inputs struct {
	base  *graph.DiGraph
	reads []readOp
	seed  int64
}

func newInputs(w workload, seed int64) *inputs {
	in := &inputs{base: gen.PrefAttach(graphNodes, graphOutDeg, seed), seed: seed}
	if w.reads {
		in.reads = readStream(byInDegree(in.base), readStreamLen, w.zipf, w.simShare, subSeed(seed, 1))
	}
	return in
}

// newChurn returns a fresh churn generator; every call with the same
// inputs yields the same update sequence.
func (in *inputs) newChurn() *churn {
	return newChurnGen(in.base, churnPool, subSeed(in.seed, 2))
}

// byInDegree lists g's nodes from most to least cited (ties by id): the
// popularity order Zipf-skewed reads follow, as lookups of a citation
// graph favour its most-cited papers. It also keeps the hot rows alike
// across seeds — hubs have full top-k lists — so the hot set's cost does
// not hinge on which node a seed happens to rank first.
func byInDegree(g *graph.DiGraph) []int {
	nodes := make([]int, g.N())
	for v := range nodes {
		nodes[v] = v
	}
	sort.SliceStable(nodes, func(i, j int) bool { return g.InDegree(nodes[i]) > g.InDegree(nodes[j]) })
	return nodes
}

// readStream draws count read ops over the nodes, listed by popularity:
// Zipf(s=1.1) by rank in that order, or uniform.
func readStream(nodes []int, count int, zipf bool, simShare float64, seed int64) []readOp {
	rng := rand.New(rand.NewSource(seed))
	n := len(nodes)
	var z *rand.Zipf
	if zipf {
		z = rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	}
	key := func() int32 {
		if z != nil {
			return int32(nodes[z.Uint64()])
		}
		return int32(nodes[rng.Intn(n)])
	}
	ops := make([]readOp, count)
	for i := range ops {
		ops[i] = readOp{a: key(), b: -1}
		if rng.Float64() < simShare {
			ops[i].b = key()
		}
	}
	return ops
}

// churn is the stationary write stream: it toggles edges of a fixed pool
// drawn once from the seed. Every pool edge points from a newer node to
// an older one and is absent from the base graph, so the graph stays a
// DAG of the same shape and the per-update affected area neither grows
// nor shrinks as the run goes on. A toggle inserts an absent edge or
// deletes a present one, so every update applies in sequence.
type churn struct {
	pool    []graph.Edge
	present []bool
	rng     *rand.Rand
}

// newChurnGen draws size distinct PA-oriented edges absent from g: the
// source is uniform over the nodes that have an older node, the target
// is drawn among older nodes with probability proportional to
// in-degree+1, as in gen.PrefAttach.
func newChurnGen(g *graph.DiGraph, size int, seed int64) *churn {
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	// urn lists node v indeg(v)+1 times, ascending, so the entries for
	// nodes older than u are exactly a prefix.
	urn := make([]int, 0, n+g.M())
	for v := 0; v < n; v++ {
		for c := 0; c <= g.InDegree(v); c++ {
			urn = append(urn, v)
		}
	}
	seen := make(map[graph.Edge]bool, size)
	pool := make([]graph.Edge, 0, size)
	for len(pool) < size {
		from := 1 + rng.Intn(n-1)
		older := sort.SearchInts(urn, from)
		e := graph.Edge{From: from, To: urn[rng.Intn(older)]}
		if g.HasEdge(e.From, e.To) || seen[e] {
			continue
		}
		seen[e] = true
		pool = append(pool, e)
	}
	return &churn{pool: pool, present: make([]bool, size), rng: rng}
}

// next returns the stream's next update and advances the pool state.
func (c *churn) next() graph.Update {
	i := c.rng.Intn(len(c.pool))
	c.present[i] = !c.present[i]
	return graph.Update{Edge: c.pool[i], Insert: c.present[i]}
}

// applyAll returns a copy of g with ups applied in order.
func applyAll(g *graph.DiGraph, ups []graph.Update) *graph.DiGraph {
	out := g.Clone()
	for _, up := range ups {
		out.Apply(up)
	}
	return out
}
