package main

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func drawChurn(g *graph.DiGraph, seed int64, count int) []graph.Update {
	c := newChurnGen(g, 256, seed)
	ups := make([]graph.Update, count)
	for i := range ups {
		ups[i] = c.next()
	}
	return ups
}

func TestChurnDeterministicPerSeed(t *testing.T) {
	g := gen.PrefAttach(512, 4, 7)
	a, b := drawChurn(g, 3, 5000), drawChurn(g, 3, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different churn streams")
	}
	if slices.Equal(a, drawChurn(g, 4, 5000)) {
		t.Fatal("different seeds gave the same churn stream")
	}
	r1 := readStream(byInDegree(g), 1000, true, 0.2, 9)
	if !slices.Equal(r1, readStream(byInDegree(g), 1000, true, 0.2, 9)) {
		t.Fatal("same seed gave different read streams")
	}
}

func TestChurnAppliesInSequence(t *testing.T) {
	g := gen.PrefAttach(512, 4, 7)
	work := g.Clone()
	for i, up := range drawChurn(g, 5, 20000) {
		if !work.Apply(up) {
			t.Fatalf("update %d (%v) does not apply", i, up)
		}
	}
}

func TestChurnPoolIsPAOrientedAndNew(t *testing.T) {
	g := gen.PrefAttach(512, 4, 7)
	c := newChurnGen(g, 256, 11)
	seen := map[graph.Edge]bool{}
	for _, e := range c.pool {
		if e.From <= e.To {
			t.Errorf("pool edge %v does not point from a newer node to an older one", e)
		}
		if g.HasEdge(e.From, e.To) {
			t.Errorf("pool edge %v is already in the base graph", e)
		}
		if seen[e] {
			t.Errorf("pool edge %v drawn twice", e)
		}
		seen[e] = true
	}
}
