package main

import (
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	// p99 of 1000 samples is the 990th smallest, with exactly 10 above it.
	got, err := percentile(samples(1000), 99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) was not refused")
	}
	if _, err := percentile(samples(100), 99); err == nil {
		t.Fatal("p99 of 100 samples was not refused")
	}
	if got, err := percentile(samples(21), 50); err != nil || got != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(samples(5000), p); err == nil {
			t.Fatalf("percentile %v was not refused", p)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestCentralMean(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(199 - i)
	}
	// Order statistics 98..101 (0-based) straddle the median, 99.5.
	if m := centralMean(xs); m != 99.5 {
		t.Fatalf("centralMean = %v, want 99.5", m)
	}
	if m := centralMean([]float64{7}); m != 7 {
		t.Fatalf("centralMean of one sample = %v, want 7", m)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n"
	mib, err := parseVmHWM(strings.NewReader(status))
	if err != nil || mib != 200 {
		t.Fatalf("parseVmHWM = %v, %v; want 200", mib, err)
	}
	for _, bad := range []string{
		"Name:\tx\nVmRSS:\t 1 kB\n", // no VmHWM line
		"VmHWM:\t 12 MB\n",          // wrong unit
		"VmHWM:\t twelve kB\n",      // not a number
	} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
	if mib, err := peakRSSMiB(); err != nil || mib <= 0 {
		t.Fatalf("peakRSSMiB = %v, %v", mib, err)
	}
}
