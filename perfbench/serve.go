package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	simrank "repro"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/wal"
)

// respWriter is a reusable in-process http.ResponseWriter: the handler
// writes the status and JSON body into it, nothing touches a socket.
type respWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// client sends requests straight into a handler's ServeHTTP, waiting
// for each reply: one closed-loop caller.
type client struct {
	h    http.Handler
	w    respWriter
	url  []byte
	post []byte
}

func newClient(h http.Handler) *client {
	return &client{h: h, w: respWriter{h: make(http.Header)}}
}

func (c *client) serve(req *http.Request) int {
	clear(c.w.h)
	c.w.status = 0
	c.w.body.Reset()
	c.h.ServeHTTP(&c.w, req)
	return c.w.status
}

// read sends one read op and returns the reply's status code.
func (c *client) read(op readOp) int {
	if op.b < 0 {
		c.url = append(c.url[:0], "/topkfor?k="...)
		c.url = strconv.AppendInt(c.url, topK, 10)
		c.url = append(c.url, "&node="...)
		c.url = strconv.AppendInt(c.url, int64(op.a), 10)
	} else {
		c.url = append(c.url[:0], "/similarity?a="...)
		c.url = strconv.AppendInt(c.url, int64(op.a), 10)
		c.url = append(c.url, "&b="...)
		c.url = strconv.AppendInt(c.url, int64(op.b), 10)
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, string(c.url), nil)
	if err != nil {
		panic(err) // the URL is built above from integers
	}
	return c.serve(req)
}

// write sends one acked update (POST /updates?wait=1) and returns the
// reply's status code.
func (c *client) write(up graph.Update) int {
	c.post = append(c.post[:0], `{"from":`...)
	c.post = strconv.AppendInt(c.post, int64(up.Edge.From), 10)
	c.post = append(c.post, `,"to":`...)
	c.post = strconv.AppendInt(c.post, int64(up.Edge.To), 10)
	if up.Insert {
		c.post = append(c.post, `,"op":"insert"}`...)
	} else {
		c.post = append(c.post, `,"op":"delete"}`...)
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/updates?wait=1", bytes.NewReader(c.post))
	if err != nil {
		panic(err) // constant URL
	}
	return c.serve(req)
}

// service is one booted engine + server, as simrankd runs them.
type service struct {
	eng    *simrank.ConcurrentEngine
	srv    *server.Server
	wal    *wal.WAL
	walDir string
	// churn continues the write stream where the warm-up left it; acked
	// lists every update acknowledged so far, in order.
	churn *churn
	acked []graph.Update
}

// warmWrites is the number of acked writes the warm-up sends before the
// first timed request: enough to allocate the update scratch, the
// store's second buffer and the pipeline's steady state.
const warmWrites = 64

// boot builds the engine with simrankd's default options (zero-value
// backend, C, K and workers), opens the WAL when the workload has one,
// attaches the server and warms it up. walDir must not exist yet.
func boot(w workload, in *inputs, walDir string) (*service, error) {
	eng, err := simrank.NewConcurrentEngine(in.base.N(), in.base.Edges(), simrank.Options{TopKCacheRows: w.cacheRows})
	if err != nil {
		return nil, err
	}
	s := &service{eng: eng}
	cfg := server.Config{}
	if w.wal {
		// simrankd's default policy: fsync on every append.
		s.wal, err = wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			eng.Close()
			return nil, err
		}
		s.walDir = walDir
		eng.SetWAL(s.wal)
		cfg.WAL = s.wal
	}
	s.srv = server.New(eng, cfg)
	if err := s.warm(w, in); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm fills the cache (every row on read-hot, a cache's worth on
// mixed-durable) and sends the warm-up writes.
func (s *service) warm(w workload, in *inputs) error {
	c := newClient(s.srv)
	for _, op := range w.warmReads(in.base.N()) {
		if st := c.read(op); st != http.StatusOK {
			return fmt.Errorf("warm-up read of row %d: status %d", op.a, st)
		}
	}
	s.churn = in.newChurn()
	if w.writes {
		for range warmWrites {
			up := s.churn.next()
			if st := c.write(up); st != http.StatusOK {
				return fmt.Errorf("warm-up write %v: status %d", up, st)
			}
			s.acked = append(s.acked, up)
		}
	}
	return nil
}

// warmReads lists the warm-up reads: /topkfor of the first cacheRows
// rows (all of them on read-hot), none without a reader.
func (w workload) warmReads(n int) []readOp {
	var ops []readOp
	if w.reads {
		for a := range min(n, w.cacheRows) {
			ops = append(ops, readOp{a: int32(a), b: -1})
		}
	}
	return ops
}

func (s *service) close() error {
	err := s.srv.Close()
	s.eng.Close()
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(s.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// setupRounds is how many times a run boots the service; setup_s is the
// median, and the last boot serves the measured phase.
const setupRounds = 3

// bootTimed boots setupRounds times, keeping the last service, and
// returns the median boot time in seconds.
func bootTimed(w workload, in *inputs, dir string) (*service, float64, error) {
	var times []float64
	var s *service
	for round := range setupRounds {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
			s = nil
			freeMemory()
		}
		t0 := time.Now()
		var err error
		s, err = boot(w, in, filepath.Join(dir, "wal-"+strconv.Itoa(round)))
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// freeMemory returns the garbage of a closed service to the OS, so the
// next phase's peak RSS does not carry it.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// loopResult is one closed-loop client's record of the measured phase:
// per-op latencies in µs, split into equal time windows by start time,
// and the ops sent and failed (non-2xx), ramp included.
type loopResult struct {
	win               [][]float32
	attempted, failed int
	acked             []graph.Update
}

func newLoopResult(windows, perWindow int) *loopResult {
	r := &loopResult{win: make([][]float32, windows)}
	for i := range r.win {
		r.win[i] = make([]float32, 0, perWindow)
	}
	return r
}

func (r *loopResult) add(window int, lat time.Duration) {
	if window >= 0 {
		r.win[window] = append(r.win[window], float32(lat.Nanoseconds())/1e3)
	}
}

// ops is the number of ops recorded in the windows.
func (r *loopResult) ops() int {
	n := 0
	for _, w := range r.win {
		n += len(w)
	}
	return n
}

// all returns every latency sample, pooled.
func (r *loopResult) all() []float64 {
	out := make([]float64, 0, r.ops())
	for _, w := range r.win {
		for _, v := range w {
			out = append(out, float64(v))
		}
	}
	return out
}

// measure runs the workload's closed-loop clients against the service
// for ramp + dur and returns their records (reads, writes; nil when the
// workload has no such client). Ops started during the ramp are not
// recorded; the latencies of the rest land in `windows` equal slices of
// dur.
func measure(w workload, s *service, reads []readOp, ramp, dur time.Duration, windows int) (rd, wr *loopResult) {
	var wg sync.WaitGroup
	start := time.Now().Add(ramp)
	deadline := start.Add(dur)
	winDur := dur / time.Duration(windows)
	// window is the window an op started at t falls in, -1 in the ramp.
	window := func(t time.Time) int {
		if t.Before(start) {
			return -1
		}
		return min(int(t.Sub(start)/winDur), windows-1)
	}
	if w.reads {
		// Sized for read-hot's rate on two cores, so the buffers rarely grow
		// mid-run and the peak RSS does not depend on when they do.
		rd = newLoopResult(windows, int(400_000*winDur.Seconds()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s.srv)
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				st := c.read(reads[i%len(reads)])
				rd.add(window(t0), time.Since(t0))
				if st/100 != 2 {
					rd.failed++
				}
				rd.attempted++
			}
		}()
	}
	if w.writes {
		wr = newLoopResult(windows, int(4_000*winDur.Seconds()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s.srv)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				up := s.churn.next()
				st := c.write(up)
				wr.add(window(t0), time.Since(t0))
				wr.attempted++
				if st == http.StatusOK {
					wr.acked = append(wr.acked, up)
				} else {
					wr.failed++
				}
			}
		}()
	}
	wg.Wait()
	if wr != nil {
		s.acked = append(s.acked, wr.acked...)
	}
	return rd, wr
}
