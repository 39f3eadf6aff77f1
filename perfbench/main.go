// Command perfbench is the simulator's benchmark: one command that runs
// a seeded workload against the public API (cluster.New, mpi.StartJob,
// Cluster.Run, psm Send/Recv, the mini-apps), checks the outputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are end to end, all host-side and measured
// untraced: run_s, setup_s, msgs_per_s, peak_rss_mb, alloc_mb, allocs.
// With -trace 1 they are per layer: exact counters and virtual times
// read from every layer after each cell, host-time probes of single
// layers on bare instances, CPU shares per internal module from a
// runtime/pprof profile, and host time per message from the
// benchmark's own spans.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
//
// A workload is a fixed list of cells (one cluster and one job each). A
// pass runs every cell once, one at a time, in a fresh child process.
// Passes repeat until -seconds have gone by, and each metric is the
// median over passes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minSetupSamples is how many timed constructions of a workload's
// cells setup_s takes the median of; workloads whose passes are too
// slow to reach it get construction-only samples.
const minSetupSamples = 21

func main() {
	workloadName := flag.String("workload", "", "workload to run: pingpong, umt-offload, bigscale-sharded or lossy-payload")
	seed := flag.Int64("seed", 1, "workload seed; every cell seed is derived from it")
	seconds := flag.Float64("seconds", 10, "host seconds of timed passes")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans and CPU profiles")
	child := flag.String("child", "", "internal: run one sample in this mode and print it as JSON")
	tracePrefix := flag.String("trace-prefix", "", "internal: path prefix of a traced pass's span and profile files")
	flag.Parse()

	w, err := workloadByName(*workloadName)
	if err == nil && (*traceOn < 0 || *traceOn > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traceOn)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cells := w.cells(*seed)
	if *child != "" {
		s, err := runChild(*child, cells, *tracePrefix)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(s)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	p := &parent{workload: w.name, seed: *seed, cells: cells,
		first: map[string]counts{}, digests: map[string]uint64{}}
	if p.exe, err = os.Executable(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]float64
	if *traceOn == 0 {
		metrics, err = p.endToEnd(d)
	} else {
		metrics, err = p.perLayer(d, *outDir)
	}
	if err == nil {
		err = p.report(metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// parent drives child processes and folds their samples.
type parent struct {
	exe      string
	workload string
	seed     int64
	cells    []cellSpec

	// first holds each cell's counters from its first pass; every later
	// pass must reproduce them exactly.
	first   map[string]counts
	digests map[string]uint64
	// setups holds the construction-only samples' setup times, out of
	// setupTries children run.
	setups            []float64
	setupTries        int
	attempted, failed int
}

// sample runs one child process and returns its sample. A child that
// dies without reporting counts as every cell failing.
func (p *parent) sample(mode, tracePrefix string) (sample, bool) {
	args := []string{"-workload", p.workload, "-seed", strconv.FormatInt(p.seed, 10), "-child", mode}
	if tracePrefix != "" {
		args = append(args, "-trace-prefix", tracePrefix)
	}
	cmd := exec.Command(p.exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var s sample
	if err == nil {
		err = json.Unmarshal(bytes.TrimSpace(out), &s)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s child: %v\n", mode, err)
		p.attempted += len(p.cells)
		p.failed += len(p.cells)
		return sample{}, false
	}
	p.attempted += s.Attempted
	p.failed += s.Failed
	return s, true
}

// passes runs pass children until d has gone by (at least one pass). A
// pass whose cells' counters differ from the first pass's counts as
// failed: the same seed must reproduce every count and virtual time.
func (p *parent) passes(d time.Duration, tracePrefix string) []sample {
	var out []sample
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		// Construction-only samples are spread over the run in step
		// with the time gone by, so that setup_s sees the same host
		// conditions as the passes.
		for len(out)+p.setupTries < int(minSetupSamples*time.Since(start).Seconds()/d.Seconds()) {
			p.setupSample()
		}
		prefix := ""
		if tracePrefix != "" {
			prefix = fmt.Sprintf("%s.%d", tracePrefix, len(out))
		}
		s, ok := p.sample(modePass, prefix)
		if !ok {
			if len(out) == 0 && time.Since(start) >= d {
				break
			}
			continue
		}
		out = append(out, s)
		for id, c := range s.Counts {
			want, seen := p.first[id]
			if !seen {
				p.first[id] = c
				continue
			}
			if diff := diffCounts(want, c); diff != "" {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: cell %s: rerun of the same seed changed %s\n", id, diff)
			}
		}
		for id, dg := range s.Digests {
			if _, seen := p.digests[id]; !seen {
				p.digests[id] = dg
			}
		}
	}
	return out
}

// checkReferences compares every reference construction's digest with
// the measured cell's.
func (p *parent) checkReferences() {
	hasRef := false
	for _, c := range p.cells {
		hasRef = hasRef || c.reference != nil
	}
	if !hasRef {
		return
	}
	s, ok := p.sample(modeReference, "")
	if !ok {
		return
	}
	for id, got := range s.Digests {
		if want, ok := p.digests[id]; ok && got != want {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: cell %s: digest %016x differs from its reference construction's %016x\n", id, want, got)
		}
	}
}

// setupSample runs one construction-only child.
func (p *parent) setupSample() {
	p.setupTries++
	if s, ok := p.sample(modeSetup, ""); ok {
		p.setups = append(p.setups, s.Setup)
	}
}

// setupMedian is setup_s: the median over the passes' construction
// times and the construction-only samples, topped up to
// minSetupSamples.
func (p *parent) setupMedian(ps []sample) float64 {
	for len(ps)+p.setupTries < minSetupSamples {
		p.setupSample()
	}
	vals := append([]float64(nil), p.setups...)
	for _, s := range ps {
		vals = append(vals, s.Setup)
	}
	return median(vals)
}

func medianOf(ps []sample, f func(sample) float64) float64 {
	vals := make([]float64, len(ps))
	for i, s := range ps {
		vals[i] = f(s)
	}
	return median(vals)
}

// passCounts sums the first pass's counters over the workload's cells,
// in cell order so that sums of virtual times round identically.
func (p *parent) passCounts() counts {
	total := counts{}
	for _, c := range p.cells {
		total.add(p.first[c.id])
	}
	return total
}

// endToEnd measures the workload untraced.
func (p *parent) endToEnd(d time.Duration) (map[string]float64, error) {
	ps := p.passes(d, "")
	if len(ps) == 0 {
		return nil, fmt.Errorf("no pass of %s completed", p.workload)
	}
	run := medianOf(ps, func(s sample) float64 { return s.Run })
	m := map[string]float64{
		"run_s":       run,
		"setup_s":     p.setupMedian(ps),
		"msgs_per_s":  p.passCounts().msgs() / run,
		"peak_rss_mb": medianOf(ps, func(s sample) float64 { return s.RSSMB }),
		"alloc_mb":    medianOf(ps, func(s sample) float64 { return float64(s.AllocBytes) / 1e6 }),
		"allocs":      medianOf(ps, func(s sample) float64 { return float64(s.Mallocs) }),
	}
	p.checkReferences()
	return m, nil
}

// perLayer splits d between untraced passes, which give the host-time
// baseline, and traced passes, which record spans and CPU profiles.
func (p *parent) perLayer(d time.Duration, outDir string) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	m, err := runProbes()
	if err != nil {
		return nil, err
	}
	heap, _ := p.sample(modeHeap, "")
	m["cluster.heap_mb_per_node"] = heap.HeapMBPerNode

	untraced := p.passes(d/2, "")
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", p.workload, p.seed))
	traced := p.passes(d/2, stem)
	if len(untraced) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no pass of %s completed", p.workload)
	}
	run := medianOf(untraced, func(s sample) float64 { return s.Run })
	c := p.passCounts()
	for k, v := range finishCounts(c) {
		m[k] = v
	}
	m["sim.ns_per_event"] = ratio(run*1e9, c["sim.events"])
	m["sim.ns_per_window"] = ratio(run*1e9, c["sim.windows"])
	m["cluster.setup_ms_per_node"] = p.setupMedian(untraced) * 1e3 / float64(untraced[0].Nodes)
	m["trace.overhead_frac"] = medianOf(traced, func(s sample) float64 { return s.Run })/run - 1

	var profiles []string
	var oneWay []float64
	for i, s := range traced {
		profiles = append(profiles, fmt.Sprintf("%s.%d.cpu.pprof", stem, i))
		oneWay = append(oneWay, s.OneWayUS...)
	}
	shares, err := foldProfiles(profiles)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m[k] = v
	}
	m["psm.msg_host_us_p50"] = quantile(oneWay, 0.50)
	m["psm.msg_host_us_p99"] = quantile(oneWay, 0.99)

	p.checkReferences()
	m["failed_frac"] = ratio(float64(p.failed), float64(p.attempted))
	return m, nil
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "msgs_per_s":
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ns") || strings.HasPrefix(name, "sim.ns_per_"):
		return "ns"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us_"):
		return "us"
	case strings.Contains(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	}
	return "count"
}

// report prints one "name value unit" line per metric, then the JSON
// result line.
func (p *parent) report(metrics map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	out := map[string]value{}
	for _, k := range names {
		out[k] = value{metrics[k], unitOf(k)}
		fmt.Printf("%-32s %16.6g %s\n", k, metrics[k], unitOf(k))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.failed == 0, p.attempted, p.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
