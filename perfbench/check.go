package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	simrank "repro"
	"repro/internal/graph"
	"repro/internal/server"
)

// Oracle sample sizes: rows whose /topkfor answer is checked and node
// pairs whose /similarity answer is checked at the end of every run.
const (
	oracleRows  = 64
	oraclePairs = 64
	// scoreTol bounds |served − batch| for one score. Incremental and
	// batch SimRank agree to rounding (≈1e-12 after thousands of
	// updates); 1e-9 leaves headroom without hiding a wrong update,
	// whose error is of the order of the scores themselves (≥ 1e-4).
	scoreTol = 1e-9
)

// checkReport is what the end-of-run checks found.
type checkReport struct {
	checks     int // oracle requests sent
	mismatches int // answers that disagree with the batch build, or non-2xx
	epochOK    bool
	epoch      uint64
	acked      int
	// Stationarity of the write stream: median AffectedPairs over the
	// first and the last tenth of the acked updates (0 without writes).
	affFirst, affLast float64
	stationary        bool
}

func (r checkReport) failures() int {
	f := r.mismatches
	if !r.epochOK {
		f++
	}
	return f
}

// checkService compares the service's answers with a fresh batch build
// of the graph the benchmark knows it should hold (base + acked
// updates), and checks that the served epoch counts the acked writes.
func checkService(s *service, in *inputs, seed int64) (checkReport, error) {
	rep := checkReport{acked: len(s.acked)}
	st := s.srv.Stats()
	rep.epoch = st.Epoch
	rep.epochOK = st.Epoch == uint64(len(s.acked)) && st.UpdatesApplied == int64(len(s.acked))

	final := applyAll(in.base, s.acked)
	opts := s.eng.Options()
	ref, err := simrank.NewEngine(final.N(), final.Edges(), simrank.Options{C: opts.C, K: opts.K, Workers: opts.Workers})
	if err != nil {
		return rep, err
	}
	defer ref.Close()

	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	c := newClient(s.srv)
	n := final.N()
	for range oracleRows {
		a := rng.Intn(n)
		rep.checks++
		if st := c.read(readOp{a: int32(a), b: -1}); st != http.StatusOK {
			rep.mismatches++
			continue
		}
		var got server.TopKResponse
		if err := json.Unmarshal(c.w.body.Bytes(), &got); err != nil || !topKMatches(got.Pairs, ref, a) {
			rep.mismatches++
		}
	}
	for range oraclePairs {
		a, b := rng.Intn(n), rng.Intn(n)
		rep.checks++
		if st := c.read(readOp{a: int32(a), b: int32(b)}); st != http.StatusOK {
			rep.mismatches++
			continue
		}
		var got server.SimilarityResponse
		if err := json.Unmarshal(c.w.body.Bytes(), &got); err != nil ||
			math.Abs(got.Score-ref.Similarity(a, b)) > scoreTol {
			rep.mismatches++
		}
	}
	return rep, nil
}

// topKMatches compares a served top-k row with the reference by score:
// rank by rank the scores must agree, and every served pair must carry
// its own reference score. Near-ties may swap which nodes hold a rank. A
// rank missing from one list scores 0: an incremental update can leave a
// rounding residue (|s| ≈ 1e-19) where the batch build has an exact zero,
// and the row scan lists the residue as a trailing entry.
func topKMatches(got []server.PairJSON, ref *simrank.Engine, a int) bool {
	want := ref.TopKFor(a, topK)
	for i := range max(len(got), len(want)) {
		var g, w float64
		if i < len(got) {
			g = got[i].Score
			if got[i].A != a || math.Abs(g-ref.Similarity(a, got[i].B)) > scoreTol {
				return false
			}
		}
		if i < len(want) {
			w = want[i].Score
		}
		if math.Abs(g-w) > scoreTol {
			return false
		}
	}
	return true
}

// maxAffectedDrift is the largest ratio allowed between the median
// AffectedPairs of the first and the last tenth of a write stream. A
// stream that closes cycles grows its affected area without bound; on
// the PA toggle stream the last tenth sits 0–15% above the first, while
// the number of present pool edges settles.
const maxAffectedDrift = 1.5

// stationary reports whether two median affected areas are within
// maxAffectedDrift of each other.
func stationary(first, last float64) bool {
	return first > 0 && last > 0 && math.Max(first/last, last/first) <= maxAffectedDrift
}

// checkStationary replays the first and the last tenth of the acked
// stream on plain engines and compares their median affected areas.
func checkStationary(base *graph.DiGraph, acked []graph.Update, opts simrank.Options) (first, last float64, ok bool, err error) {
	tenth := len(acked) / 10
	if tenth == 0 {
		return 0, 0, true, nil
	}
	cut := len(acked) - tenth
	first, err = medianAffected(base, acked[:tenth], opts)
	if err != nil {
		return 0, 0, false, err
	}
	last, err = medianAffected(applyAll(base, acked[:cut]), acked[cut:], opts)
	if err != nil {
		return 0, 0, false, err
	}
	return first, last, stationary(first, last), nil
}

func medianAffected(g *graph.DiGraph, ups []graph.Update, opts simrank.Options) (float64, error) {
	eng, err := simrank.NewEngine(g.N(), g.Edges(), simrank.Options{C: opts.C, K: opts.K, Workers: opts.Workers})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	aff := make([]float64, 0, len(ups))
	for _, up := range ups {
		st, err := eng.Apply(up)
		if err != nil {
			return 0, fmt.Errorf("stationarity replay: %w", err)
		}
		aff = append(aff, float64(st.AffectedPairs))
	}
	return median(aff), nil
}
