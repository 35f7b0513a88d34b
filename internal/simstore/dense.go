package simstore

import (
	"math/bits"

	"repro/internal/matrix"
)

// Dense is the classic backend: a row-major n×n matrix.Dense. Every
// operation delegates straight to the matrix, so an engine on this store
// is bit-identical (values and allocation profile) to the pre-interface
// engine that held the matrix directly.
//
// MVCC: Seal hands out an immutable wrapper around the current buffer
// and arms the double-buffer — the first write after a Seal flips to the
// second buffer, first re-syncing only the cells the last update wrote
// (the store marks every cell Set, Add and AddSym land in a row-aligned
// bitset, so the sync costs O(cells written), not O(rows × n)). A warm
// single-writer therefore ping-pongs between two fixed n×n buffers with
// zero steady-state allocations, and readers of any sealed view are
// never raced: the writer only ever touches the buffer no live view
// references (the facade checks, and abandons the buffer to the GC
// instead when a straggling reader still pins it).
type Dense struct {
	m *matrix.Dense

	// sealed marks this instance as an immutable view: every mutation
	// panics, Seal returns the receiver.
	sealed bool

	// Double-buffer state, dormant (zero-cost) until the first Seal:
	// cow means the latest sealed view references m and the next write
	// must flip first. back is the other buffer; backAll says it is
	// wholly stale (fresh, abandoned, or post-recompute), otherwise it
	// differs from m exactly on the cells set in written.
	cow     bool
	back    *matrix.Dense
	backAll bool

	// written is the written-cell bitset, allocated by the first flip
	// (nil before it, while back is absent or wholly stale). It is
	// row-aligned: row r owns words [r·stride, (r+1)·stride), stride =
	// ⌈n/64⌉, and rowWritten[r] flags a row with any bit set. Row
	// alignment is what keeps marking race-free under the row-parallel
	// write-back: goroutines writing disjoint rows never share a word or
	// a flag.
	written    []uint64
	rowWritten []bool
	stride     int

	// copied counts the cells the flips re-synced (a full copy counts
	// n²); see CopiedCells.
	copied int64
}

// wholeRowShare sets when a flip copies a row with one memmove instead
// of cell by cell: once at least 1/wholeRowShare of its cells are
// written. A scattered cell costs several times a streamed one; on a
// 2-vCPU Xeon at n = 2048 the two break even between 1/16 and 1/8 of a
// row written, so below 1/16 the cell walk is the cheaper copy and above
// it a row costs no more than a whole-row copy.
const wholeRowShare = 16

// NewDense returns a zeroed n×n dense store.
func NewDense(n int) *Dense { return &Dense{m: matrix.NewDense(n, n)} }

// WrapDense adopts an existing square matrix (snapshot restore, tests).
func WrapDense(m *matrix.Dense) *Dense {
	if m.Rows != m.Cols {
		panic("simstore: dense store requires a square matrix")
	}
	return &Dense{m: m}
}

// Matrix exposes the current backing matrix for reads (snapshot
// serialization, tests). Writers that bypass Set/Add/AddSym must use
// WritableMatrix instead once the store has ever been sealed.
func (d *Dense) Matrix() *matrix.Dense { return d.m }

// WritableMatrix returns the buffer the next writes belong in, flipping
// the double-buffer first if the current one is referenced by a sealed
// view. The flip brings the buffer fully up to date, so partial writes
// are safe; but they bypass the written-cell tracking, so the caller
// must follow up with MarkAllRowsDirty before the next Seal.
func (d *Dense) WritableMatrix() *matrix.Dense {
	d.beforeWrite()
	return d.m
}

// WritableMatrixDiscard is WritableMatrix for callers about to rewrite
// EVERY cell (the batch recompute): a needed flip swaps buffers without
// syncing any content — the returned buffer holds garbage until the
// caller's full rewrite lands. Skips the 8n²-byte copy a syncing flip
// would immediately see overwritten. Callers must still follow up with
// MarkAllRowsDirty (idempotent here; the swap already declared the
// other buffer wholly stale).
func (d *Dense) WritableMatrixDiscard() *matrix.Dense {
	if d.sealed {
		panic("simstore: write to a sealed dense view")
	}
	if d.cow {
		if d.back == nil {
			d.back = matrix.NewDense(d.m.Rows, d.m.Cols)
		}
		d.m, d.back = d.back, d.m
		d.backAll = true // back = the pre-rewrite front: wholly stale
		d.cow = false
	}
	return d.m
}

// beforeWrite guards every mutation: panics on sealed views and flips
// the double-buffer when the current front is held by a sealed view.
func (d *Dense) beforeWrite() {
	if d.sealed {
		panic("simstore: write to a sealed dense view")
	}
	if d.cow {
		d.flip()
	}
}

// flip makes back the write target: allocate it on first need, bring it
// up to date (full copy when wholly stale, otherwise just the written
// cells), and swap. The buffer being released to the sealed view(s) is
// exactly current, so the written set starts empty.
func (d *Dense) flip() {
	if d.back == nil {
		d.back = matrix.NewDense(d.m.Rows, d.m.Cols)
		d.backAll = true
	}
	if d.written == nil {
		// The first flip starts the write tracking: a store that is
		// sealed but never written (a read-only server) never pays for
		// the bitset. Until now back was wholly stale anyway.
		n := d.m.Rows
		d.stride = (n + 63) >> 6
		d.written = make([]uint64, n*d.stride)
		d.rowWritten = make([]bool, n)
	}
	if d.backAll {
		copy(d.back.Data, d.m.Data)
		d.copied += int64(len(d.m.Data))
		d.backAll = false
		d.syncWritten(false)
	} else {
		d.syncWritten(true)
	}
	d.m, d.back = d.back, d.m
	d.cow = false
}

// syncWritten clears the written set, first copying its cells from the
// front buffer to the back when sync is set. Each flagged row is copied
// cell by cell, or whole once wholeRowShare says a memmove is cheaper;
// either way only its written cells count towards CopiedCells.
func (d *Dense) syncWritten(sync bool) {
	n := d.m.Cols
	for r, flagged := range d.rowWritten {
		if !flagged {
			continue
		}
		d.rowWritten[r] = false
		words := d.written[r*d.stride : (r+1)*d.stride]
		if !sync {
			clear(words)
			continue
		}
		cells := 0
		for _, w := range words {
			cells += bits.OnesCount64(w)
		}
		d.copied += int64(cells)
		src, dst := d.m.Row(r), d.back.Row(r)
		if cells*wholeRowShare >= n {
			copy(dst, src)
			clear(words)
			continue
		}
		for k, w := range words {
			if w == 0 {
				continue
			}
			words[k] = 0
			for base := k << 6; w != 0; w &= w - 1 {
				j := base + bits.TrailingZeros64(w)
				dst[j] = src[j]
			}
		}
	}
}

// mark records that cell (i, j) of the front buffer was written. No-op
// until the first flip allocates the bitset.
func (d *Dense) mark(i, j int) {
	if d.written == nil {
		return
	}
	d.written[i*d.stride+j>>6] |= 1 << (uint(j) & 63)
	d.rowWritten[i] = true
}

// Seal returns an immutable view of the current buffer and marks it
// copy-on-write: the next mutation flips to the other buffer.
func (d *Dense) Seal() Store {
	if d.sealed {
		return d
	}
	d.cow = true
	return &Dense{m: d.m, sealed: true}
}

// Writable reports whether the receiver accepts mutation.
func (d *Dense) Writable() bool { return !d.sealed }

// MarkRowsDirty is a no-op: the store tracks the cells it writes itself.
//
// Deprecated: kept only so existing callers compile; the dense flip
// re-syncs only the cells the last update wrote without being told.
func (d *Dense) MarkRowsDirty([]int) {}

// MarkAllRowsDirty declares the back buffer wholly stale — the follow-up
// to a full rewrite through WritableMatrix (recompute). The next flip
// copies all n² cells.
func (d *Dense) MarkAllRowsDirty() {
	if d.written == nil {
		return
	}
	d.backAll = true
}

// CopiedCells returns the running total of cells the flips re-synced
// into the back buffer: the written cells of each incremental flip, n²
// for each full copy (first flip, after AbandonBack, after a
// recompute). A row copied whole because it was mostly written counts
// only its written cells.
func (d *Dense) CopiedCells() int64 { return d.copied }

// RecyclesBufferOf reports whether the sealed view shares the buffer
// the receiver's next flip would write into — the exact test an MVCC
// facade needs before recycling: only a straggling reader on THIS
// buffer forces an AbandonBack; stragglers on older, already-orphaned
// buffers are harmless.
func (d *Dense) RecyclesBufferOf(view *Dense) bool {
	return d.back != nil && view.m == d.back
}

// DoubleBuffered reports whether the second buffer is currently held
// (false before the first flip and after AbandonBack) — observability
// for tests and memory accounting.
func (d *Dense) DoubleBuffered() bool { return d.back != nil }

// AbandonBack detaches the second buffer without touching it, leaving it
// to the garbage collector once the sealed views referencing it drain.
// The MVCC facade calls this instead of blocking the writer when a
// long-running reader (an O(n²) Similarities copy, a snapshot) still
// pins the buffer the next flip would recycle; the following flip
// allocates a fresh one and copies all n² cells into it.
func (d *Dense) AbandonBack() {
	if d.back == nil {
		return
	}
	d.back = nil
	d.backAll = true
}

// N returns the node count.
func (d *Dense) N() int { return d.m.Rows }

// At returns s(i, j).
func (d *Dense) At(i, j int) float64 { return d.m.At(i, j) }

// Set writes entry (i, j) only — the dense layout stores both triangles.
func (d *Dense) Set(i, j int, v float64) {
	if d.sealed || d.cow {
		d.beforeWrite()
	}
	d.m.Set(i, j, v)
	d.mark(i, j)
}

// Add accumulates v into entry (i, j).
func (d *Dense) Add(i, j int, v float64) {
	if d.sealed || d.cow {
		d.beforeWrite()
	}
	d.m.Add(i, j, v)
	d.mark(i, j)
}

// AddSym accumulates v into (i, j) and (j, i); see matrix.Dense.AddSym.
func (d *Dense) AddSym(i, j int, v float64) {
	if d.sealed || d.cow {
		d.beforeWrite()
	}
	d.m.AddSym(i, j, v)
	d.mark(i, j)
	d.mark(j, i)
}

// BeginConcurrentWrites readies the store for the row-parallel update
// write-back (core.ConcurrentWriteStore): the copy-on-write flip a
// sealed view would force on the first mutation runs here, once,
// serially — after it d.cow is false, so the concurrent Add calls that
// follow go straight to matrix cells and goroutines writing disjoint
// cells never race. Returns true: the dense layout stores both
// triangles, so the parallel write-back lands each pair's mirror cell
// in a separate phase rather than via AddSym.
func (d *Dense) BeginConcurrentWrites() bool {
	d.beforeWrite()
	return true
}

// AlignConcurrentBoundary returns r unchanged: every dense row is an
// independent write target, so any row partition is conflict-free.
func (d *Dense) AlignConcurrentBoundary(r int) int { return r }

// Row returns row i aliasing the matrix storage (no scratch involved, so
// for this backend the view stays valid across calls).
func (d *Dense) Row(i int) []float64 { return d.m.Row(i) }

// ConcurrentRow is Row: the alias is immutable on a sealed view (and
// under the single-writer contract on a live store), so concurrent
// readers share it safely.
func (d *Dense) ConcurrentRow(i int) []float64 { return d.m.Row(i) }

// UpperRow returns the suffix (a, a), …, (a, n−1) of row a, aliasing
// storage.
func (d *Dense) UpperRow(a int) []float64 { return d.m.Row(a)[a:] }

// ColInto copies column j into dst.
func (d *Dense) ColInto(dst []float64, j int) { d.m.ColInto(dst, j) }

// Clone returns an independent writable deep copy of the current
// contents (double-buffer state is not cloned).
func (d *Dense) Clone() Store { return &Dense{m: d.m.Clone()} }

// ToDense returns an independent dense copy of S.
func (d *Dense) ToDense() *matrix.Dense { return d.m.Clone() }

// AddNodes returns a dense store over n+count nodes: old rows copied
// into the top-left block, new diagonal entries set to diag — exactly
// the fixed-point extension the engine's AddNodes always performed.
// The result is a fresh, never-sealed store; sealed views of the old
// size keep their own buffers.
func (d *Dense) AddNodes(count int, diag float64) Store {
	oldN := d.m.Rows
	n := oldN + count
	next := matrix.NewDense(n, n)
	for r := 0; r < oldN; r++ {
		copy(next.Row(r)[:oldN], d.m.Row(r))
	}
	for v := oldN; v < n; v++ {
		next.Set(v, v, diag)
	}
	return &Dense{m: next}
}

// MemBytes reports the 8n² serving payload (the MVCC double-buffer, when
// armed, is writer-side working memory and intentionally not counted).
func (d *Dense) MemBytes() int64 { return int64(len(d.m.Data)) * 8 }

// Backend names the implementation.
func (d *Dense) Backend() Backend { return BackendDense }
