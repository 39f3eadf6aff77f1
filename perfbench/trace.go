package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one host-time interval recorded by the benchmark's own code
// around a call into the simulator.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until exit. A nil *spans
// records nothing, so untraced runs pay one nil check per call site.
// Spans are only recorded from the benchmark's goroutine or from
// simulated processes of a single-engine cluster, which run one at a
// time, so no locking is needed.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Name: name, Parent: parent, Start: int64(time.Since(s.t0))})
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	if s == nil {
		return
	}
	s.list[i].End = int64(time.Since(s.t0))
}

// oneWayMicros returns the host time per one-way message of every
// recorded bounce (half a round trip), in microseconds.
func (s *spans) oneWayMicros() []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.Name == "bounce" {
			out = append(out, float64(sp.End-sp.Start)/2e3)
		}
	}
	return out
}

// write stores the spans as JSON, one object per line.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Modules whose CPU share the traced run reports: every internal
// package on the simulated path. A module missing from the profile
// reports 0.
var profiledModules = []string{
	"cluster", "core", "dwarfx", "fabric", "hfi", "ihk", "kernel", "kmem",
	"kstruct", "linux", "mckernel", "mem", "miniapps", "mlx", "model", "mpi",
	"pagetable", "psm", "sim", "trace", "uproc", "vas", "verbs", "xrand",
}

// Runtime functions are bucketed by substrings of their names. The GC
// bucket is marking, sweeping, scavenging and write barriers; the
// scheduler bucket is goroutine parking and switching, channel
// operations, run queues and the OS thread sleep/wake paths under them,
// through which the simulator hands control between processes. A name
// matching neither (allocation, memmove, maps, ...) is "other".
var (
	gcNames = []string{
		"gc", "GC", "scan", "sweep", "Sweep", "mark", "Mark", "grey",
		"findObject", "wbBuf", "lfstack", "spanSet", "scavenge",
		"typePointers", "bulkBarrier",
	}
	schedNames = []string{
		"chan", "Sudog", "park", "goready", "schedule", "findRunnable",
		"execute", "casgstatus", "guintptr", "muintptr", "puintptr", "runq",
		"stealWork", "futex", "note", "wakep", "startm", "stopm", "lock2",
		"WithRank", "mcall", "gogo", "gosched", "goexit", "newproc", "gfget",
		"gfput", "usleep", "osyield", "procyield", "spinning", "acquirep",
		"releasep", "handoffp", "selectgo", "waitq", "send", "recv", "netpoll",
		"sema", "dropg", "pidle", "timers", "sysmon", "retake",
	}
)

// foldProfiles runs `go tool pprof -top` on the merged CPU profiles and
// folds the flat (self) samples into one share per internal module plus
// the runtime's scheduler and GC buckets. Shares are of all samples.
func foldProfiles(paths []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	byBucket := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 5 && fields[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected line %q", line)
		}
		total += ms
		byBucket[bucketOf(fields[5])] += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: profiles %v have no samples", paths)
	}
	shares := map[string]float64{}
	for _, m := range profiledModules {
		shares[m+".cpu_frac"] = byBucket[m] / total
	}
	shares["runtime.sched_cpu_frac"] = byBucket["runtime.sched"] / total
	shares["runtime.gc_cpu_frac"] = byBucket["runtime.gc"] / total
	return shares, nil
}

// bucketOf maps a profiled function name to its bucket: the module of
// repro/internal/<module> functions, runtime.gc or runtime.sched for
// the runtime's collector and scheduler, or "other".
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return "other"
	}
	for _, sub := range gcNames {
		if strings.Contains(name, sub) {
			return "runtime.gc"
		}
	}
	for _, sub := range schedNames {
		if strings.Contains(name, sub) {
			return "runtime.sched"
		}
	}
	return "other"
}

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks (vals is sorted in place).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[lo]
	}
	return vals[lo] + (pos-float64(lo))*(vals[lo+1]-vals[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }
