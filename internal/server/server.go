package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	simrank "repro"
	"repro/internal/replica"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value is usable: no snapshot path
// (snapshot endpoints disabled, nothing persisted at shutdown) and the
// pipeline defaults.
type Config struct {
	// SnapshotPath, when non-empty, is where POST /snapshot and the final
	// shutdown snapshot atomically persist the engine.
	SnapshotPath string
	// QueueSize bounds the write pipeline's buffered request queue
	// (default 1024 requests).
	QueueSize int
	// MaxBatch caps how many updates one drain cycle coalesces ACROSS
	// requests (default 65536). It is a soft cap: a single request's
	// update array is never split (it must commit atomically), so one
	// request larger than MaxBatch still commits whole. Bound individual
	// request sizes at the client, or rely on the 8 MiB body limit.
	MaxBatch int
	// BatchWindow keeps each drain cycle open this long after its first
	// update arrives, deepening coalescing at the cost of added write
	// latency. 0 (the default) commits as soon as the engine is free.
	BatchWindow time.Duration
	// MaxNodes bounds the graph size POST /nodes may grow to. The
	// similarity matrix is dense (n² float64s, 8n² bytes), so this is a
	// memory-safety limit: one request asking for a huge count must not
	// OOM the process. Default 16384 (a 2 GiB matrix); size to your RAM.
	MaxNodes int
	// WAL, when non-nil, is the write-ahead log the caller installed on
	// the engine (ConcurrentEngine.SetWAL) before Attach. The server
	// uses the handle for four things: the /stats wal_* gauges, the
	// ?wait=1 group-commit Sync under the interval fsync policy,
	// truncating sealed segments once a snapshot has durably captured
	// their epochs, and serving the GET /wal replication stream (with
	// Attach wiring the engine's SetWALNotify hook into the stream hub).
	// The server never closes it — the owner does, after Close has
	// drained the last write.
	WAL *wal.WAL
	// HeartbeatInterval paces the liveness frames GET /wal interleaves
	// into an idle stream (default 1s). Followers size their stall
	// timeout above this.
	HeartbeatInterval time.Duration
	// Leader, when non-empty, marks this server a read replica following
	// that base URL: POST /updates and POST /nodes answer 409 carrying
	// the leader's address (writes belong on the leader; the follower
	// would fork from the stream it replays), and POST /snapshot stays
	// available for seeding local restarts.
	Leader string
	// Replica, set on a follower alongside Leader, is the stream client
	// whose lag gates /readyz (503 until CaughtUp) and whose gauges feed
	// the /stats replica_* fields.
	Replica *replica.Replica
}

// defaultMaxNodes keeps the dense n×n similarity matrix at ≤ 2 GiB
// unless the operator explicitly allows more.
const defaultMaxNodes = 1 << 14

// Server serves a simrank.ConcurrentEngine over HTTP/JSON. Reads go
// straight to the engine's lock-free MVCC read views; writes go through
// the coalescing pipeline. Create with New (engine in hand) or
// NewPending + Attach (listen first, boot the engine behind /readyz),
// install as an http.Handler, and Close on shutdown to drain queued
// writes and persist a final snapshot.
type Server struct {
	// eng and pipe are written once by Attach, before ready flips true;
	// handlers read them only after observing ready, so the fields need
	// no further synchronization.
	eng   *simrank.ConcurrentEngine
	pipe  *pipeline
	ready atomic.Bool

	mux   *http.ServeMux
	cfg   Config
	start time.Time

	// walHub fans committed records out to GET /wal subscribers; always
	// constructed (the handler 409s without a WAL, so an unused hub is
	// just an empty map).
	walHub *walHub

	// nodesMu serializes POST /nodes so the MaxNodes bound is
	// check-then-act safe: the engine's own lock only covers the growth,
	// not the limit check against the current size.
	nodesMu sync.Mutex

	// snapMu serializes snapshot-file writes, and snapDone marks the
	// final shutdown snapshot as written: without it, an on-demand
	// POST /snapshot still in flight when Close runs could rename a
	// pre-drain snapshot OVER the final one, losing acknowledged writes.
	snapMu   sync.Mutex
	snapDone bool

	closeOnce sync.Once
	closeErr  error
}

// New builds a ready Server over eng. The caller must not write to eng
// directly afterwards — all mutations must flow through the server so
// the pipeline's coalescing and shutdown guarantees hold.
func New(eng *simrank.ConcurrentEngine, cfg Config) *Server {
	s := NewPending(cfg)
	s.Attach(eng)
	return s
}

// NewPending builds a Server with no engine yet: /healthz answers (the
// process is live), /readyz reports not-ready, and every other endpoint
// answers 503. The deployment shape this exists for: bind the listener
// immediately, boot the engine (a -restore or a large batch computation
// can take a while), then Attach — load balancers watch /readyz and
// hold traffic until the first view is published.
func NewPending(cfg Config) *Server {
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = defaultMaxNodes
	}
	s := &Server{
		cfg:    cfg,
		start:  time.Now(),
		walHub: newWALHub(),
	}
	s.mux = http.NewServeMux()
	// Every engine-backed endpoint goes through requireReady, so a
	// handler added later cannot forget the pending-server gate; only
	// the liveness and readiness probes are served engine-free.
	s.mux.HandleFunc("GET /similarity", s.requireReady(s.handleSimilarity))
	s.mux.HandleFunc("GET /topk", s.requireReady(s.handleTopK))
	s.mux.HandleFunc("GET /topkfor", s.requireReady(s.handleTopKFor))
	s.mux.HandleFunc("GET /stats", s.requireReady(s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /updates", s.requireReady(s.handleUpdates))
	s.mux.HandleFunc("POST /nodes", s.requireReady(s.handleNodes))
	s.mux.HandleFunc("POST /snapshot", s.requireReady(s.handleSnapshot))
	s.mux.HandleFunc("GET /wal", s.requireReady(s.handleWALStream))
	return s
}

// Attach hands the booted engine to a pending server and flips it
// ready. Call exactly once; the caller must not write to eng directly
// afterwards. The engine arrives with its first view already published
// (WrapEngine/NewConcurrentEngine publish at construction), so ready
// implies queryable.
func (s *Server) Attach(eng *simrank.ConcurrentEngine) {
	if s.ready.Load() {
		panic("server: Attach called twice")
	}
	s.eng = eng
	if s.cfg.WAL != nil {
		// Replication tail: every durably appended record reaches the
		// GET /wal subscribers. The hub's publish is non-blocking, as the
		// hook contract (it runs under the engine's writer mutex) demands.
		eng.SetWALNotify(s.walHub.publish)
	}
	var sync func() error
	if w := s.cfg.WAL; w != nil && w.Policy() == wal.SyncInterval {
		// Group commit: ?wait=1 acknowledgements force the cycle's record
		// to disk. Redundant under SyncAlways (every append fsyncs),
		// deliberately absent under SyncNone (the operator opted out of
		// durability).
		sync = w.Sync
	}
	s.pipe = newPipeline(eng.ApplyBatch, sync, s.cfg.QueueSize, s.cfg.MaxBatch, s.cfg.BatchWindow)
	s.ready.Store(true)
}

// SetReplica installs the follower's stream client on a pending server
// — the replica needs the booted engine, which NewPending by definition
// does not have yet. Call before Attach: handlers only dereference
// cfg.Replica after observing ready, and Attach's ready flip publishes
// this write to them. (New-path callers set Config.Replica directly.)
func (s *Server) SetReplica(rep *replica.Replica) {
	if s.ready.Load() {
		panic("server: SetReplica after Attach")
	}
	s.cfg.Replica = rep
}

// errNotReady answers every engine-backed endpoint before Attach.
var errNotReady = errors.New("engine is still booting (watch /readyz)")

// engineReady gates handlers on Attach having completed.
func (s *Server) engineReady() bool { return s.ready.Load() }

// requireReady wraps an engine-backed handler with the 503-until-Attach
// gate of the pending-boot flow.
func (s *Server) requireReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.engineReady() {
			writeError(w, http.StatusServiceUnavailable, errNotReady)
			return
		}
		h(w, r)
	}
}

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close shuts the write path down gracefully: new writes are rejected,
// the pipeline drains and commits everything already accepted, and —
// when a snapshot path is configured — the final engine state is
// persisted atomically. Idempotent; later calls return the first error.
// Call after the HTTP listener has stopped accepting requests (e.g.
// http.Server.Shutdown) so no accepted write is ever dropped.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if !s.engineReady() {
			// Never attached: nothing queued, nothing worth persisting.
			s.snapMu.Lock()
			s.snapDone = true
			s.snapMu.Unlock()
			return
		}
		s.pipe.close()
		s.snapMu.Lock()
		defer s.snapMu.Unlock()
		if s.cfg.SnapshotPath != "" {
			s.closeErr = s.writeSnapshotAndTruncate()
		}
		s.snapDone = true
	})
	return s.closeErr
}

// writeSnapshotAndTruncate persists the engine to the configured
// snapshot path and, on success, drops WAL segments every record of
// which the snapshot now covers. Caller holds snapMu.
func (s *Server) writeSnapshotAndTruncate() error {
	// The published epoch read BEFORE serialization is a safe truncation
	// floor: WriteSnapshotFile pins its own view, which can only be this
	// epoch or newer, and under-truncating merely keeps records the next
	// boot's replay will skip as already-covered.
	epoch := s.eng.Epoch()
	if err := simrank.WriteSnapshotFile(s.eng, s.cfg.SnapshotPath); err != nil {
		return err
	}
	if w := s.cfg.WAL; w != nil {
		if err := w.Truncate(epoch); err != nil {
			return fmt.Errorf("snapshot persisted, but truncating the wal below epoch %d failed: %w", epoch, err)
		}
	}
	return nil
}

// Stats returns the current counters (also served as GET /stats). Only
// valid on a ready server; the /stats handler gates on that. Everything
// view-derived (size, backend, store bytes, epoch gauges) comes from
// ONE ViewInfo reading, so a response cannot report an epoch alongside
// another epoch's node counts.
func (s *Server) Stats() StatsResponse {
	st := &s.pipe.stats
	vi := s.eng.ViewInfo()
	cs := vi.Cache
	updP50, updP99 := s.pipe.lat.percentiles()
	resp := StatsResponse{
		Nodes:               vi.N,
		Edges:               vi.M,
		Backend:             string(vi.Backend),
		StoreBytes:          vi.StoreBytes,
		Epoch:               vi.Epoch,
		ViewAgeMS:           float64(vi.Age.Microseconds()) / 1e3,
		InflightReaders:     vi.Readers,
		ViewsPublished:      vi.Published,
		StoreBufferAbandons: vi.BufferAbandons,
		UpdatesEnqueued:     st.enqueued.Load(),
		UpdatesApplied:      st.applied.Load(),
		UpdatesRejected:     st.rejected.Load(),
		Batches:             st.batches.Load(),
		FailedBatches:       st.failedBatches.Load(),
		MaxBatch:            st.maxBatch.Load(),
		QueueDepth:          st.depth.Load(),

		UpdateP50Us:   updP50,
		UpdateP99Us:   updP99,
		UpdateWorkers: s.eng.Options().Workers,

		CacheRowHits:         cs.RowHits,
		CacheRowMisses:       cs.RowMisses,
		CacheGlobalHits:      cs.GlobalHits,
		CacheGlobalMisses:    cs.GlobalMisses,
		CacheInvalidatedRows: cs.InvalidatedRows,
		CacheFlushes:         cs.Flushes,
		CacheEvictions:       cs.Evictions,
		CachedRows:           cs.Rows,

		WalksRepaired:        vi.WalksRepaired,
		WalkResampleFraction: vi.WalkResampleFraction,

		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if w := s.cfg.WAL; w != nil {
		ws := w.Stats()
		resp.WALEnabled = true
		resp.WALEpoch = ws.LastEpoch
		resp.WALSegments = ws.Segments
		resp.WALBytes = ws.Bytes
		resp.WALFsyncs = ws.Fsyncs
		resp.WALFailures = st.walFailures.Load()
		resp.WALSubscribers = s.walHub.subscribers()
	}
	if rep := s.cfg.Replica; rep != nil {
		rs := rep.Stats()
		resp.Leader = s.cfg.Leader
		resp.ReplicaLagEpochs = rs.LagEpochs
		resp.ReplicaLagMS = rs.LagMS
		resp.RecordsStreamed = rs.Records
		resp.Reconnects = rs.Reconnects
		resp.ReplicaConnected = rs.Connected
	}
	return resp
}

// checkNode validates a node id against the current graph size.
func (s *Server) checkNode(name string, v int) error {
	if n := s.eng.N(); v < 0 || v >= n {
		return fmt.Errorf("%s=%d out of range [0,%d)", name, v, n)
	}
	return nil
}
