package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
)

// A finished simulation leaves its daemon processes' goroutines parked
// for good, and they keep the whole cluster reachable. To keep one
// sample from inflating the next one's memory and GC cost, every sample
// runs in a fresh child process of this binary, which prints one JSON
// sample and exits.

// Child modes.
const (
	modePass      = "pass"      // run every cell once
	modeSetup     = "setup"     // construct every cell once
	modeReference = "reference" // run the reference constructions
	modeHeap      = "heap"      // live heap per constructed node
)

// sample is what one child process reports.
type sample struct {
	Setup      float64 `json:"setup_s"`
	Run        float64 `json:"run_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	RSSMB      float64 `json:"rss_mb"`
	Nodes      int     `json:"nodes"`
	// Counts holds each cell's layer counters, by cell id.
	Counts map[string]counts `json:"counts"`
	// Digests holds the outcome digest of every cell that has a
	// reference construction, by cell id.
	Digests       map[string]uint64 `json:"digests"`
	HeapMBPerNode float64           `json:"heap_mb_per_node"`
	// OneWayUS is the host time per one-way message of every traced
	// bounce.
	OneWayUS  []float64 `json:"one_way_us"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
}

// cellRunner runs cells inside a child and tallies their outcomes.
type cellRunner struct {
	s  sample
	sp *spans
}

func (r *cellRunner) fail(id string, err error) {
	r.s.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: cell %s failed: %v\n", id, err)
}

// runChild executes one child mode over the workload's cells. With
// tracePrefix set, a pass records spans and a CPU profile to files
// starting with it.
func runChild(mode string, cells []cellSpec, tracePrefix string) (sample, error) {
	r := &cellRunner{s: sample{Counts: map[string]counts{}, Digests: map[string]uint64{}}}
	var err error
	switch mode {
	case modePass:
		err = r.pass(cells, tracePrefix)
	case modeSetup:
		for _, c := range cells {
			r.s.Attempted++
			t0 := time.Now()
			_, err := cluster.New(c.cfg)
			r.s.Setup += time.Since(t0).Seconds()
			if err != nil {
				r.fail(c.id, err)
			}
		}
	case modeReference:
		r.references(cells)
	case modeHeap:
		r.heapPerNode(cells)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	r.s.RSSMB = peakRSSMB()
	return r.s, err
}

// pass runs every cell once, one at a time, and records the pass's
// allocation totals.
func (r *cellRunner) pass(cells []cellSpec, tracePrefix string) error {
	if tracePrefix != "" {
		prof, err := os.Create(tracePrefix + ".cpu.pprof")
		if err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
		r.sp = newSpans()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range cells {
		r.runCell(c)
	}
	runtime.ReadMemStats(&m1)
	r.s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.s.Mallocs = m1.Mallocs - m0.Mallocs
	if tracePrefix == "" {
		return nil
	}
	pprof.StopCPUProfile()
	r.s.OneWayUS = r.sp.oneWayMicros()
	return r.sp.write(tracePrefix + ".spans.jsonl")
}

// runCell builds and runs one cell, timing cluster.New and the run
// separately, then checks it and reads its counters.
func (r *cellRunner) runCell(c cellSpec) {
	r.s.Attempted++
	r.s.Nodes += c.cfg.Nodes
	sp := r.sp
	cellSpan := sp.begin("cell "+c.id, -1)
	defer sp.end(cellSpan)
	newSpan := sp.begin("cluster.New", cellSpan)
	t0 := time.Now()
	cl, err := cluster.New(c.cfg)
	r.s.Setup += time.Since(t0).Seconds()
	sp.end(newSpan)
	if err != nil {
		r.fail(c.id, err)
		return
	}
	runSpan := sp.begin("run", cellSpan)
	t1 := time.Now()
	res, err := c.run(cl, sp, runSpan)
	r.s.Run += time.Since(t1).Seconds()
	sp.end(runSpan)
	if err == nil {
		err = check(cl, res)
	}
	if err != nil {
		r.fail(c.id, err)
		return
	}
	r.s.Counts[c.id] = collect(cl, res)
	if c.reference != nil {
		r.s.Digests[c.id] = digest(cl, res)
	}
}

// references runs the reference construction of every cell that has
// one (the sharded cell on a single engine) and reports its digest
// under the cell's id.
func (r *cellRunner) references(cells []cellSpec) {
	for _, c := range cells {
		if c.reference == nil {
			continue
		}
		r.s.Attempted++
		cl, err := cluster.New(*c.reference)
		var res cellResult
		if err == nil {
			res, err = c.run(cl, nil, -1)
		}
		if err == nil {
			err = check(cl, res)
		}
		if err != nil {
			r.fail(c.id+" (reference)", err)
			continue
		}
		r.s.Digests[c.id] = digest(cl, res)
	}
}

// heapPerNode is the live heap one constructed node holds: heap in use
// after building every cell, minus before, over the node count.
func (r *cellRunner) heapPerNode(cells []cellSpec) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var keep []*cluster.Cluster
	for _, c := range cells {
		r.s.Attempted++
		cl, err := cluster.New(c.cfg)
		if err != nil {
			r.fail(c.id, err)
			continue
		}
		keep = append(keep, cl)
		r.s.Nodes += c.cfg.Nodes
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	r.s.HeapMBPerNode = ratio((float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/1e6, float64(r.s.Nodes))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB of 1e6 bytes.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// diffCounts names the first counter that differs between two runs of
// a cell, or returns "".
func diffCounts(a, b counts) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s from %v to %v", k, a[k], b[k])
		}
	}
	return ""
}
