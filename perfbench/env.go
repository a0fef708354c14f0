package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment records the machine and source the run measured.
func environment() map[string]any {
	return map[string]any{
		"nproc":         goruntime.NumCPU(),
		"gomaxprocs":    goruntime.GOMAXPROCS(0),
		"go_version":    goruntime.Version(),
		"goos_goarch":   goruntime.GOOS + "/" + goruntime.GOARCH,
		"git_commit":    gitCommit(),
		"source_digest": sourceDigest(),
	}
}

// gitCommit reads HEAD from .git in the working directory without running
// git; a checkout that is not a git repository reports "unknown" and is
// identified by its source digest instead.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest is an FNV-64 over the path and contents of every .go file
// and go.mod under the working directory, so a result names the exact
// source it measured even where no git metadata exists.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(blob)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// readSteal is the machine's cumulative steal time in clock ticks.
func readSteal() int64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// peakRSSMB is the process's VmHWM in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// memSnap is a point on the Go runtime's cumulative allocation and GC
// counters and the process's CPU time; phases report deltas between two
// snapshots.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	cpuNs      int64
}

func readMem() memSnap {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return memSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs,
		cpuNs: ru.Utime.Nano() + ru.Stime.Nano()}
}

// memDelta is what the runtime did between two snapshots.
type memDelta struct {
	allocMB, gcCycles, pauseMs, cpuMs float64
}

func (a memSnap) to(b memSnap) memDelta {
	return memDelta{
		allocMB:  float64(b.totalAlloc-a.totalAlloc) / 1e6,
		gcCycles: float64(b.numGC - a.numGC),
		pauseMs:  float64(b.pauseNs-a.pauseNs) / 1e6,
		cpuMs:    float64(b.cpuNs-a.cpuNs) / 1e6,
	}
}

func (a memDelta) plus(b memDelta) memDelta {
	return memDelta{a.allocMB + b.allocMB, a.gcCycles + b.gcCycles, a.pauseMs + b.pauseMs, a.cpuMs + b.cpuMs}
}

// percentileMs is the nearest-rank p-th percentile of ds, in ms.
func percentileMs(ds []time.Duration, p float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank]) / 1e6
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive xs.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func digestString(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s) // a hash.Hash never fails to write
	return h.Sum64()
}

// digest is an FNV-64 over the float64 bits of v, so two models compare
// bit for bit.
func digest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
