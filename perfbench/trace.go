package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	simrank "repro"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/simstore"
	"repro/internal/wal"
)

// The traced run replays one op sequence through each layer's public
// entry point in turn — the server, the MVCC engine, the Inc-SR kernel
// on a never-sealed store, the kernel on a store sealed before every
// update, the row gather and top-k scan, and the WAL — each on its own
// instance built from the same base state, and records one span per op
// per layer. Spans of one op share its id; a layer's self time is its
// span minus its children's spans for that op (spanParent).

type spanName uint8

const (
	spServerRead spanName = iota
	spServerWrite
	spEngineTopKFor
	spEngineSimilarity
	spEngineApply
	spStoreUpdate // Workspace.IncSR on a store sealed before every update
	spCoreIncSR   // Workspace.IncSR on a never-sealed store
	spStoreRow    // ConcurrentRow on a sealed store
	spTopKRow     // metrics.TopKRow on the gathered row
	spWALAppend
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"server.read", "server.write", "engine.topkfor", "engine.similarity", "engine.apply",
	"simstore.update", "core.incsr", "simstore.row", "metrics.topkrow", "wal.append",
}

// spanParent is the static layer tree. wal.append is a child of
// server.write only on workloads whose server logs (see traceRun.walChild).
var spanParent = [numSpanNames]int{
	spServerRead: -1, spServerWrite: -1,
	spEngineTopKFor: int(spServerRead), spEngineSimilarity: int(spServerRead),
	spEngineApply: int(spServerWrite), spStoreUpdate: int(spEngineApply), spCoreIncSR: int(spStoreUpdate),
	spStoreRow: int(spEngineTopKFor), spTopKRow: int(spEngineTopKFor),
	spWALAppend: -1,
}

type span struct {
	op         int32
	name       spanName
	start, end int64 // ns since the traced run began
}

// traceOp is one op of the replayed sequence: a read (write == false) or
// an acked write of up.
type traceOp struct {
	write bool
	read  readOp
	up    graph.Update
}

// Trace-run shape.
const (
	// maxTraceOps caps the traced sequence so the span buffer stays small.
	maxTraceOps = 100_000
	// mixedReadsPerWrite interleaves mixed-durable's two clients into one
	// sequence: about the ratio the two closed-loop clients reach when
	// they run concurrently.
	mixedReadsPerWrite = 200
	// Probe sizes: after the workload's own ops, the sequence is topped
	// up to at least this many ops of each kind, so every layer has a
	// value on every workload. Values a workload reaches only through the
	// probe describe the layer on that workload's graph, not the workload.
	probeReads  = 2000
	probeWrites = 200
)

type traceRun struct {
	t0       time.Time
	spans    []span
	walChild bool
}

// parents is the layer tree of this run: spanParent, with wal.append
// under server.write when the workload's server logs.
func (tr *traceRun) parents() [numSpanNames]int {
	p := spanParent
	if tr.walChild {
		p[spWALAppend] = int(spServerWrite)
	}
	return p
}

func (tr *traceRun) record(op int, name spanName, start, end time.Time) {
	tr.spans = append(tr.spans, span{op: int32(op), name: name, start: start.Sub(tr.t0).Nanoseconds(), end: end.Sub(tr.t0).Nanoseconds()})
}

// traced is the --trace 1 run.
func traced(w workload, in *inputs, dur time.Duration, dir string) (result, error) {
	tr := &traceRun{t0: time.Now(), walChild: w.wal}
	warmReads := w.warmReads(in.base.N())

	// Server pass: the op sequence through ServeHTTP, then an untraced
	// closed-loop phase on the same service for the overhead baseline.
	a, err := boot(w, in, filepath.Join(dir, "wal-server"))
	if err != nil {
		return result{}, err
	}
	opts := a.eng.Options()
	warmUps := append([]graph.Update(nil), a.acked...)
	failed := 0
	c := newClient(a.srv)
	var ops []traceOp
	serve := func(op traceOp) {
		i := len(ops)
		ops = append(ops, op)
		t0 := time.Now()
		var st int
		name := spServerRead
		if op.write {
			name = spServerWrite
			st = c.write(op.up)
		} else {
			st = c.read(op.read)
		}
		tr.record(i, name, t0, time.Now())
		switch {
		case st != http.StatusOK:
			failed++
		case op.write:
			a.acked = append(a.acked, op.up)
		}
	}
	src := &leadSource{w: w, reads: in.reads, ch: a.churn}
	for deadline := time.Now().Add(dur / 4); len(ops) < maxTraceOps && time.Now().Before(deadline); {
		serve(src.next())
	}
	for _, op := range probeOps(ops, in, a.churn) {
		serve(op)
	}
	cacheAfter := a.eng.ViewInfo().Cache
	srvStats := a.srv.Stats()
	storeMiB := float64(a.eng.StoreMemBytes()) / (1 << 20)
	rd, wr := measure(w, a, in.reads, 0, dur/4, 1)
	lead := rd
	if w.leadWrites() {
		lead = wr
	}
	attempted := len(ops)
	for _, r := range []*loopResult{rd, wr} {
		if r != nil {
			attempted += r.attempted
			failed += r.failed
		}
	}
	rep, err := checkService(a, in, in.seed)
	if err != nil {
		return result{}, err
	}
	if err := a.close(); err != nil {
		return result{}, err
	}
	a = nil
	freeMemory()

	// Engine pass: the same warm-up and sequence on a second engine with
	// the same options, called directly.
	b, err := simrank.NewConcurrentEngine(in.base.N(), in.base.Edges(), simrank.Options{TopKCacheRows: w.cacheRows})
	if err != nil {
		return result{}, err
	}
	for _, r := range warmReads {
		b.TopKFor(int(r.a), topK)
	}
	for _, up := range warmUps {
		if err := b.ApplyBatch([]graph.Update{up}); err != nil {
			return result{}, err
		}
	}
	for i, op := range ops {
		t0 := time.Now()
		switch {
		case op.write:
			err = b.ApplyBatch([]graph.Update{op.up})
			tr.record(i, spEngineApply, t0, time.Now())
		case op.read.b < 0:
			b.TopKFor(int(op.read.a), topK)
			tr.record(i, spEngineTopKFor, t0, time.Now())
		default:
			b.SimilarityStderr(int(op.read.a), int(op.read.b))
			tr.record(i, spEngineSimilarity, t0, time.Now())
		}
		if err != nil {
			return result{}, err
		}
	}
	b.Close()
	b = nil
	freeMemory()

	// Kernel and store passes start from a batch build of the base graph.
	g := in.base.Clone()
	s0 := matrix.NewDense(g.N(), g.N())
	t0 := time.Now()
	batch.MatrixFormInto(s0, matrix.NewDense(g.N(), g.N()), core.NewWorkspace(g).TransitionCSR(), opts.C, opts.K, opts.Workers)
	matrixFormS := time.Since(t0).Seconds()

	aff, dirty, err := tr.kernelPass(ops, warmUps, in.base, s0.Clone(), opts)
	if err != nil {
		return result{}, err
	}
	if err := tr.storePass(ops, warmUps, in.base, s0, opts); err != nil {
		return result{}, err
	}
	s0 = nil
	freeMemory()
	walStats, err := tr.walPass(ops, warmUps, filepath.Join(dir, "wal-probe"))
	if err != nil {
		return result{}, err
	}

	// Stationarity from the kernel's own counts over the workload's writes.
	rep.stationary = true
	if w.writes {
		tenth := len(aff) / 10
		first, last := median(append([]float64(nil), aff[:tenth]...)), median(append([]float64(nil), aff[len(aff)-tenth:]...))
		rep.affFirst, rep.affLast = first, last
		rep.stationary = stationary(first, last)
	}
	attempted += rep.checks
	failed += rep.failures()
	printChecks(rep, failed, attempted)

	m := tr.layerMetrics(ops)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	p50 := median(lead.all())
	overheadName := spServerRead
	if w.leadWrites() {
		overheadName = spServerWrite
	}
	set("trace.overhead_us", m[spanNames[overheadName]+"_us"].Value-p50, "us")
	writes, reads := 0, 0
	for _, op := range ops {
		if op.write {
			writes++
		} else {
			reads++
		}
	}
	set("server.updates_per_batch", float64(srvStats.UpdatesApplied)/float64(max(srvStats.Batches, 1)), "count")
	set("cache.hit_ratio", float64(cacheAfter.RowHits)/float64(max(cacheAfter.RowHits+cacheAfter.RowMisses, 1)), "ratio")
	set("cache.invalidated_rows_per_write", float64(cacheAfter.InvalidatedRows)/float64(max(writes+len(warmUps), 1)), "count")
	set("cache.evictions_per_read", float64(cacheAfter.Evictions)/float64(max(reads+len(warmReads), 1)), "count")
	set("core.affected_pairs", median(aff), "count")
	set("core.dirty_rows", median(dirty), "count")
	set("simstore.store_mib", storeMiB, "MiB")
	set("wal.bytes_per_write", walStats.bytes, "B")
	set("wal.fsyncs_per_write", walStats.fsyncs, "count")
	set("batch.matrixform_s", matrixFormS, "s")

	if err := tr.writeSpans(w.name); err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0 && rep.stationary, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// leadSource yields the workload's own ops in sequence order. Writes
// come from the service's churn generator, continuing its stream.
type leadSource struct {
	w     workload
	reads []readOp
	ch    *churn
	i, r  int
}

func (s *leadSource) next() traceOp {
	s.i++
	if s.w.writes && (!s.w.reads || s.i%(mixedReadsPerWrite+1) == 1) {
		return traceOp{write: true, up: s.ch.next()}
	}
	s.r++
	return traceOp{read: s.reads[(s.r-1)%len(s.reads)]}
}

// probeOps tops the sequence up to probeReads /topkfor and /similarity
// reads (uniform keys) and probeWrites writes.
func probeOps(ops []traceOp, in *inputs, ch *churn) []traceOp {
	nr, ns, nw := 0, 0, 0
	for _, op := range ops {
		switch {
		case op.write:
			nw++
		case op.read.b < 0:
			nr++
		default:
			ns++
		}
	}
	rng := rand.New(rand.NewSource(subSeed(in.seed, 4)))
	n := in.base.N()
	var probe []traceOp
	for ; nr < probeReads; nr++ {
		probe = append(probe, traceOp{read: readOp{a: int32(rng.Intn(n)), b: -1}})
	}
	for ; ns < probeReads; ns++ {
		probe = append(probe, traceOp{read: readOp{a: int32(rng.Intn(n)), b: int32(rng.Intn(n))}})
	}
	for ; nw < probeWrites; nw++ {
		probe = append(probe, traceOp{write: true, up: ch.next()})
	}
	return probe
}

// newStore builds a store of the engine's backend holding s.
func newStore(backend simrank.Backend, s *matrix.Dense) (simstore.Store, error) {
	if backend == simrank.BackendPacked {
		p := simstore.NewPacked(s.Rows)
		p.SetFromDense(s)
		return p, nil
	}
	if backend != simrank.BackendDense {
		return nil, fmt.Errorf("traced run: no exact store for backend %q", backend)
	}
	return simstore.WrapDense(s), nil
}

// updater runs the engine's exact update path (Workspace.IncSR, then the
// graph and workspace maintenance) against one store.
type updater struct {
	g    *graph.DiGraph
	ws   *core.Workspace
	s    simstore.Store
	opts simrank.Options
}

func newUpdater(base *graph.DiGraph, s *matrix.Dense, opts simrank.Options) (*updater, error) {
	st, err := newStore(opts.Backend, s)
	if err != nil {
		return nil, err
	}
	g := base.Clone()
	ws := core.NewWorkspace(g)
	ws.SetWorkers(opts.Workers)
	return &updater{g: g, ws: ws, s: st, opts: opts}, nil
}

func (u *updater) kernel(up graph.Update) (core.Stats, error) {
	return u.ws.IncSR(u.s, up, u.opts.C, u.opts.K)
}

func (u *updater) commit(up graph.Update, st core.Stats) {
	u.s.MarkRowsDirty(st.DirtyRows)
	u.g.Apply(up)
	u.ws.ApplyUpdate(up)
}

func (u *updater) close() { u.ws.StopPool() }

// kernelPass times the Inc-SR kernel on a store that is never sealed, so
// no copy-on-write ever runs: core.incsr. It returns the affected pairs
// and dirty rows of every write in ops.
func (tr *traceRun) kernelPass(ops []traceOp, warm []graph.Update, base *graph.DiGraph, s *matrix.Dense, opts simrank.Options) (aff, dirty []float64, err error) {
	u, err := newUpdater(base, s, opts)
	if err != nil {
		return nil, nil, err
	}
	defer u.close()
	for _, up := range warm {
		st, err := u.kernel(up)
		if err != nil {
			return nil, nil, err
		}
		u.commit(up, st)
	}
	for i, op := range ops {
		if !op.write {
			continue
		}
		t0 := time.Now()
		st, err := u.kernel(op.up)
		tr.record(i, spCoreIncSR, t0, time.Now())
		if err != nil {
			return nil, nil, err
		}
		aff = append(aff, float64(st.AffectedPairs))
		dirty = append(dirty, float64(len(st.DirtyRows)))
		u.commit(op.up, st)
	}
	return aff, dirty, nil
}

// storePass times the same kernel on a store sealed before every update,
// as the MVCC engine seals one per publish, so each update pays the
// store's copy-on-write: simstore.update (self time = simstore.cow). Reads
// gather their row from the latest sealed view (simstore.row) and scan it
// (metrics.topkrow).
func (tr *traceRun) storePass(ops []traceOp, warm []graph.Update, base *graph.DiGraph, s *matrix.Dense, opts simrank.Options) error {
	u, err := newUpdater(base, s, opts)
	if err != nil {
		return err
	}
	defer u.close()
	view := u.s.Seal()
	apply := func(i int, up graph.Update) error {
		t0 := time.Now()
		st, err := u.kernel(up)
		if i >= 0 {
			tr.record(i, spStoreUpdate, t0, time.Now())
		}
		if err != nil {
			return err
		}
		u.commit(up, st)
		view = u.s.Seal()
		return nil
	}
	for _, up := range warm {
		if err := apply(-1, up); err != nil {
			return err
		}
	}
	for i, op := range ops {
		switch {
		case op.write:
			if err := apply(i, op.up); err != nil {
				return err
			}
		case op.read.b < 0:
			a := int(op.read.a)
			t0 := time.Now()
			row := view.ConcurrentRow(a)
			t1 := time.Now()
			metrics.TopKRow(row, a, topK)
			t2 := time.Now()
			tr.record(i, spStoreRow, t0, t1)
			tr.record(i, spTopKRow, t1, t2)
		}
	}
	return nil
}

type walFigures struct{ bytes, fsyncs float64 }

// walPass appends every write of ops to a fresh log with simrankd's
// default fsync policy, as the engine logs a one-update batch:
// wal.append. It returns bytes and fsyncs per appended write.
func (tr *traceRun) walPass(ops []traceOp, warm []graph.Update, dir string) (walFigures, error) {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return walFigures{}, err
	}
	defer os.RemoveAll(dir)
	epoch := uint64(0)
	for _, up := range warm {
		epoch++
		if err := l.Append(&wal.Record{Epoch: epoch, Kind: wal.KindBatch, Updates: []graph.Update{up}}); err != nil {
			l.Close()
			return walFigures{}, err
		}
	}
	before := l.Stats()
	for i, op := range ops {
		if !op.write {
			continue
		}
		epoch++
		rec := &wal.Record{Epoch: epoch, Kind: wal.KindBatch, Updates: []graph.Update{op.up}}
		t0 := time.Now()
		err := l.Append(rec)
		tr.record(i, spWALAppend, t0, time.Now())
		if err != nil {
			l.Close()
			return walFigures{}, err
		}
	}
	after := l.Stats()
	if err := l.Close(); err != nil {
		return walFigures{}, err
	}
	n := float64(max(after.Appends-before.Appends, 1))
	return walFigures{bytes: float64(after.Bytes-before.Bytes) / n, fsyncs: float64(after.Fsyncs-before.Fsyncs) / n}, nil
}

// layerMetrics turns the spans into per-call medians of span and self
// time, and busy totals.
func (tr *traceRun) layerMetrics(ops []traceOp) map[string]metric {
	// dur[name][op] is the span's duration in ns, absent when the op has
	// no such span.
	const absent = math.MinInt64
	var dur [numSpanNames][]int64
	for n := range dur {
		dur[n] = make([]int64, len(ops))
		for i := range dur[n] {
			dur[n][i] = absent
		}
	}
	for _, sp := range tr.spans {
		dur[sp.name][sp.op] = sp.end - sp.start
	}
	parent := tr.parents()
	// self[name][op] = span minus its children's spans for the same op.
	var self [numSpanNames][]int64
	for n := range self {
		self[n] = append([]int64(nil), dur[n]...)
	}
	for child, p := range parent {
		if p < 0 {
			continue
		}
		for i, d := range dur[child] {
			if d != absent && self[p][i] != absent {
				self[p][i] -= d
			}
		}
	}
	m := make(map[string]metric)
	stat := func(xs []int64) (med, busy float64) {
		var v []float64
		for _, x := range xs {
			if x != absent {
				v = append(v, float64(x)/1e3)
				busy += float64(x) / 1e9
			}
		}
		return centralMean(v), busy
	}
	timed := func(metricName string, n spanName, useSelf bool) {
		xs := dur[n]
		if useSelf {
			xs = self[n]
		}
		med, busy := stat(xs)
		m[metricName+"_us"] = metric{med, "us"}
		m[metricName+"_busy_s"] = metric{busy, "s"}
	}
	timed("server.read", spServerRead, false)
	timed("server.write", spServerWrite, false)
	timed("engine.topkfor", spEngineTopKFor, false)
	timed("engine.similarity", spEngineSimilarity, false)
	timed("engine.apply", spEngineApply, false)
	timed("core.incsr", spCoreIncSR, false)
	timed("simstore.cow", spStoreUpdate, true)
	timed("simstore.row", spStoreRow, false)
	timed("metrics.topkrow", spTopKRow, false)
	timed("wal.append", spWALAppend, false)
	med, _ := stat(self[spServerRead])
	m["server.read_self_us"] = metric{med, "us"}
	med, _ = stat(self[spServerWrite])
	m["server.write_self_us"] = metric{med, "us"}
	med, _ = stat(self[spEngineApply])
	m["engine.self_us"] = metric{med, "us"}
	return m
}

// traceFile is where a traced run writes its spans, relative to the
// directory the benchmark runs from; each run replaces its workload's file.
func traceFile(workload string) string {
	return filepath.Join(".bench_build", "trace", workload+".csv")
}

// writeSpans writes every span as CSV: op id, layer, parent layer,
// start and end in ns since the traced run began.
func (tr *traceRun) writeSpans(workload string) error {
	path := traceFile(workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	parent := tr.parents()
	fmt.Fprintln(bw, "op,span,parent,start_ns,end_ns")
	for _, sp := range tr.spans {
		p := ""
		if parent[sp.name] >= 0 {
			p = spanNames[parent[sp.name]]
		}
		fmt.Fprintf(bw, "%d,%s,%s,%d,%d\n", sp.op, spanNames[sp.name], p, sp.start, sp.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
