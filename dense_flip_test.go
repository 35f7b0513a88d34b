package simrank

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/simstore"
)

// denseWriter returns the writer-side dense store of a ConcurrentEngine.
func denseWriter(t *testing.T, ce *ConcurrentEngine) *simstore.Dense {
	t.Helper()
	d, ok := ce.eng.s.(*simstore.Dense)
	if !ok {
		t.Fatalf("writer store is %T, want *simstore.Dense", ce.eng.s)
	}
	return d
}

// writeRecorder is a serial core.SimStore over a plain matrix that
// records the distinct cells the update write-back lands.
type writeRecorder struct {
	*matrix.Dense
	cells map[[2]int]bool
}

func (w *writeRecorder) Add(i, j int, v float64) {
	w.Dense.Add(i, j, v)
	w.cells[[2]int{i, j}] = true
}

func (w *writeRecorder) AddSym(i, j int, v float64) {
	w.Dense.AddSym(i, j, v)
	w.cells[[2]int{i, j}] = true
	w.cells[[2]int{j, i}] = true
}

// The dense MVCC flip copies exactly the cells the previous update
// wrote. A serial replica of the engine's update path counts those
// cells independently. Under Inc-SR the count is the previous update's
// AffectedPairs. Inc-uSR also writes the deltas inside (0, ZeroTol],
// which its AffectedPairs leaves out, so there it is a lower bound. The
// full-copy cases — the first flip, the flip after a buffer abandon and
// the flip after a Recompute — copy exactly n².
func TestDenseFlipCopiesLastUpdatesCells(t *testing.T) {
	const c, k = 0.6, 6
	base := gen.PrefAttach(90, 3, 17)
	n := base.N()
	full := int64(n) * int64(n)
	pool := base.Edges()[:10]
	for _, workers := range []int{1, 2} {
		for _, prune := range []bool{true, false} {
			t.Run(fmt.Sprintf("workers=%d/prune=%v", workers, prune), func(t *testing.T) {
				ce, err := NewConcurrentEngine(n, base.Edges(), Options{
					Backend: BackendDense, C: c, K: k, Workers: workers, DisablePruning: !prune,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer ce.Close()
				d := denseWriter(t, ce)
				g := base.Clone()
				ws := core.NewWorkspace(g)
				rec := &writeRecorder{Dense: ce.Similarities(), cells: map[[2]int]bool{}}
				step := 0
				// apply toggles the next pool edge (delete it when present,
				// re-insert it otherwise) on the engine and the replica. It
				// returns the cells the engine's flip copied and the cells
				// the replica's write-back wrote.
				apply := func() (copied, wrote int64) {
					t.Helper()
					e := pool[step%len(pool)]
					step++
					up := Update{Edge: e, Insert: !g.HasEdge(e.From, e.To)}
					before := d.CopiedCells()
					st, err := ce.Apply(up)
					if err != nil {
						t.Fatal(err)
					}
					copied = d.CopiedCells() - before
					clear(rec.cells)
					var rst UpdateStats
					if prune {
						rst, err = ws.IncSR(rec, up, c, k)
					} else {
						rst, err = ws.IncUSR(rec, up, c, k)
					}
					if err != nil {
						t.Fatal(err)
					}
					g.Apply(up)
					ws.ApplyUpdate(up)
					wrote = int64(len(rec.cells))
					if rst.AffectedPairs != st.AffectedPairs {
						t.Fatalf("update %d: replica affected %d pairs, engine %d", step, rst.AffectedPairs, st.AffectedPairs)
					}
					if affected := int64(st.AffectedPairs); affected > wrote || prune && affected != wrote {
						t.Fatalf("update %d: %d cells written, %d affected pairs", step, wrote, affected)
					}
					return copied, wrote
				}
				// expectStream applies count toggles, each copying exactly
				// the cells the previous update wrote.
				expectStream := func(prev int64, count int) int64 {
					t.Helper()
					for i := 0; i < count; i++ {
						copied, wrote := apply()
						if copied != prev {
							t.Fatalf("update %d: flip copied %d cells, want the %d the previous update wrote", step, copied, prev)
						}
						prev = wrote
					}
					return prev
				}
				expectFull := func(label string) int64 {
					t.Helper()
					copied, wrote := apply()
					if copied != full {
						t.Fatalf("%s: flip copied %d cells, want n² = %d", label, copied, full)
					}
					return wrote
				}

				prev := expectFull("first flip")
				prev = expectStream(prev, 2*len(pool))

				// A reader pinning the view two publishes back forces the
				// writer to abandon the buffer it would recycle.
				pinned := ce.acquire()
				prev = expectStream(prev, 1)
				prev = expectFull("flip after abandon")
				release(pinned)
				prev = expectStream(prev, len(pool))

				if err := ce.Recompute(); err != nil {
					t.Fatal(err)
				}
				rec.Dense = ce.Similarities()
				prev = expectFull("flip after recompute")
				expectStream(prev, len(pool))
			})
		}
	}
}

// BufferAbandons counts the writes that drop the dense second buffer: a
// reader pinning the view from two publishes back across a write raises
// it by exactly one, and the next write leaves it alone.
func TestViewInfoCountsBufferAbandons(t *testing.T) {
	g := gen.PrefAttach(40, 3, 5)
	ce, err := NewConcurrentEngine(g.N(), g.Edges(), Options{Backend: BackendDense, C: 0.6, K: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[0]
	toggle := func() {
		t.Helper()
		if _, err := ce.Apply(Update{Edge: e, Insert: !ce.HasEdge(e.From, e.To)}); err != nil {
			t.Fatal(err)
		}
	}
	abandons := func() int64 { return ce.ViewInfo().BufferAbandons }
	toggle()
	toggle()
	if got := abandons(); got != 0 {
		t.Fatalf("BufferAbandons = %d with no straggling reader, want 0", got)
	}
	pinned := ce.acquire()
	toggle() // the pinned view is now one publish back: its buffer is the front's
	if got := abandons(); got != 0 {
		t.Fatalf("BufferAbandons = %d after a write one publish past the pin, want 0", got)
	}
	toggle() // two publishes back: the flip would recycle the pinned buffer
	if got := abandons(); got != 1 {
		t.Fatalf("BufferAbandons = %d after a write two publishes past the pin, want 1", got)
	}
	toggle() // the pinned buffer is orphaned for good
	if got := abandons(); got != 1 {
		t.Fatalf("BufferAbandons = %d after the next write, want still 1", got)
	}
	release(pinned)
}
