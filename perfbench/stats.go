package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses when fewer than minBeyond samples lie
// beyond the requested rank. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%v of no samples", p)
	}
	rank := max(int(math.Ceil(float64(n)*p/100))-1, 0) // 0-based nearest rank
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has only %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	return xs[rank], nil
}

// median returns the middle value of xs (mean of the two middle values
// for even counts), 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// centralMean returns the mean of the samples between the 49th and the
// 51st percentile: the median, resolved finer than the clock's 1 ns step
// that quantizes sub-µs spans. xs is sorted in place.
func centralMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	lo, hi := n*49/100, max(n*51/100, n*49/100+1)
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// peakRSSMiB reads this process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM extracts the "VmHWM:  <n> kB" line of a /proc/<pid>/status
// file, in MiB.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if v, ok, err := vmHWMLine(sc.Text()); ok || err != nil {
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line")
}

// vmHWMLine parses one status line; ok is false for other lines.
func vmHWMLine(line string) (mib float64, ok bool, err error) {
	rest, found := strings.CutPrefix(line, "VmHWM:")
	if !found {
		return 0, false, nil
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 || fields[1] != "kB" {
		return 0, true, fmt.Errorf("peak rss: malformed line %q", line)
	}
	kb, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, true, fmt.Errorf("peak rss: malformed line %q", line)
	}
	return float64(kb) / 1024, true, nil
}
