package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/miniapps"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/psm"
	"repro/internal/runner"
	"repro/internal/sim"
)

// cellSpec is one simulation of a workload: the machine to build and
// the job to run on it. Every pass of a workload runs the same cells.
type cellSpec struct {
	id  string
	cfg cluster.Spec
	run func(cl *cluster.Cluster, sp *spans, parent int) (cellResult, error)
	// reference, when set, is a second construction of the same cell
	// whose digest must equal the measured cell's (checked once per
	// run, outside the timed region).
	reference *cluster.Spec
}

// cellResult is what a finished cell exposes to the layer counters and
// the correctness checks.
type cellResult struct {
	eps []*psm.Endpoint
	job *mpi.JobResult
}

// workload is one named set of cells.
type workload struct {
	name  string
	cells func(seed int64) []cellSpec
}

var workloads = []workload{
	{"pingpong", pingPongCells},
	{"umt-offload", umtOffloadCells},
	{"bigscale-sharded", bigscaleCells},
	{"lossy-payload", lossyCells},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// spec is the common construction of every cell: default model
// parameters and a cell seed derived from the run seed and the cell id.
func spec(seed int64, id string, nodes int, os cluster.OSType, synthetic bool) cluster.Spec {
	return cluster.Spec{
		Nodes: nodes, OS: os, Params: model.Default(),
		Seed: runner.DeriveSeed(seed, id), Synthetic: synthetic,
	}
}

// Ping-pong sizes straddle the protocol switch: PIO up to 16K, eager
// SDMA up to 64K, rendezvous with TID-programmed expected receives
// above it. Larger messages cost more host time per bounce, so they get
// fewer repetitions.
var pingPongLadder = []struct {
	size uint64
	reps int
}{
	{1 << 10, 150}, {8 << 10, 150}, {16 << 10, 150},
	{32 << 10, 100}, {64 << 10, 100},
	{256 << 10, 30}, {1 << 20, 10}, {4 << 20, 5},
}

// pingPongCells is 2 nodes x 1 rank per OS configuration, loss-free,
// synthetic payloads, run as an MPI job over the psm Send/Recv path.
func pingPongCells(seed int64) []cellSpec {
	var cells []cellSpec
	for _, os := range cluster.AllOSTypes {
		id := "pingpong/" + os.String()
		cells = append(cells, cellSpec{
			id:  id,
			cfg: spec(seed, id, 2, os, true),
			run: func(cl *cluster.Cluster, sp *spans, parent int) (cellResult, error) {
				return runJob(cl, 1, mpiPingPong(sp, parent))
			},
		})
	}
	return cells
}

// mpiPingPong bounces every ladder size between ranks 0 and 1. Rank 0
// records one span per bounce with its send and receive as children.
func mpiPingPong(sp *spans, parent int) mpi.RankFunc {
	return func(c *mpi.Comm) error {
		maxSize := pingPongLadder[len(pingPongLadder)-1].size
		buf, err := c.MmapAnon(maxSize)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank
		tag := uint64(0)
		for _, step := range pingPongLadder {
			for i := 0; i < step.reps; i++ {
				tag++
				if c.Rank == 1 {
					if err := c.Recv(peer, tag, buf, step.size); err != nil {
						return err
					}
					if err := c.Send(peer, tag, buf, step.size); err != nil {
						return err
					}
					continue
				}
				b := sp.begin("bounce", parent)
				s := sp.begin("send", b)
				if err := c.Send(peer, tag, buf, step.size); err != nil {
					return err
				}
				sp.end(s)
				r := sp.begin("recv", b)
				if err := c.Recv(peer, tag, buf, step.size); err != nil {
					return err
				}
				sp.end(r)
				sp.end(b)
			}
		}
		return c.Munmap(buf)
	}
}

// umtOffloadCells is UMT2013 on 4 nodes x 16 ranks per node for every
// OS configuration: sixteen ranks funnel offloaded system calls through
// each node's few Linux CPUs.
func umtOffloadCells(seed int64) []cellSpec {
	var cells []cellSpec
	for _, os := range cluster.AllOSTypes {
		id := "umt-offload/" + os.String()
		cells = append(cells, cellSpec{
			id:  id,
			cfg: spec(seed, id, 4, os, true),
			run: func(cl *cluster.Cluster, _ *spans, _ int) (cellResult, error) {
				return runApp(cl, miniapps.UMT2013(), 16)
			},
		})
	}
	return cells
}

// bigscaleCells is one UMT2013 job on 64 nodes x 4 ranks per node with
// the PicoDriver, simulated by two engine shards. Its reference is the
// same seed on the single engine: the shard count must not change the
// outcome.
func bigscaleCells(seed int64) []cellSpec {
	const id = "bigscale-sharded/McKernel+HFI1"
	cfg := spec(seed, id, 64, cluster.OSMcKernelHFI, true)
	ref := cfg
	cfg.Shards = 2
	return []cellSpec{{
		id:  id,
		cfg: cfg,
		run: func(cl *cluster.Cluster, _ *spans, _ int) (cellResult, error) {
			return runApp(cl, miniapps.UMT2013(), 4)
		},
		reference: &ref,
	}}
}

// runApp runs one mini-app job with rpn ranks on every node.
func runApp(cl *cluster.Cluster, app *miniapps.App, rpn int) (cellResult, error) {
	return runJob(cl, rpn, func(c *mpi.Comm) error { return app.Body(c, app) })
}

// runJob places rpn ranks per node, drives the cluster to completion
// and returns the job's result and endpoints.
func runJob(cl *cluster.Cluster, rpn int, body mpi.RankFunc) (cellResult, error) {
	placement := make([]int, len(cl.Nodes)*rpn)
	for r := range placement {
		placement[r] = r / rpn
	}
	h := mpi.StartJob(cl, mpi.JobSpec{Placement: placement, Body: body})
	if err := cl.Run(0); err != nil {
		return cellResult{}, err
	}
	res, err := h.Result()
	if err != nil {
		return cellResult{}, err
	}
	out := cellResult{job: res}
	for _, c := range h.Comms() {
		out.eps = append(out.eps, c.EP)
	}
	return out, nil
}

// Lossy cells drop 2% of packets and carry real payload bytes; sizes are
// PIO (8K), eager SDMA (32K) and rendezvous (256K).
const lossyDrop = 0.02

var lossyLadder = []struct {
	size uint64
	reps int
}{
	{8 << 10, 140}, {32 << 10, 100}, {256 << 10, 28},
}

func lossyCells(seed int64) []cellSpec {
	var cells []cellSpec
	for _, os := range cluster.AllOSTypes {
		id := "lossy-payload/" + os.String()
		cfg := spec(seed, id, 2, os, false)
		cfg.Faults.Drop = lossyDrop
		cells = append(cells, cellSpec{id: id, cfg: cfg, run: lossyPingPong})
	}
	return cells
}

// lossyPingPong bounces the ladder over bare psm endpoints. Both ranks
// verify every arrival against the reference pattern. The job runs
// without the MPI runtime because its completion barrier cannot be
// drained on a lossy fabric: a rank that has returned no longer
// acknowledges, so a dropped final ACK would exhaust the peer's retry
// budget.
func lossyPingPong(cl *cluster.Cluster, sp *spans, parent int) (cellResult, error) {
	eps := make([]*psm.Endpoint, 2)
	errs := make([]error, 2)
	book := psm.MapBook{}
	ready := cl.NewRendezvous(2)
	idle := 0
	for r := 0; r < 2; r++ {
		r := r
		osops := cl.Nodes[r].NewRankOS(r)
		cl.Go(r, fmt.Sprintf("lossy%d", r), func(p *sim.Proc) {
			ep, err := psm.NewEndpoint(p, osops, r, book, false)
			if err != nil {
				errs[r] = err
				ready.Done(p)
				return
			}
			eps[r] = ep
			book[r] = psm.Addr{Node: osops.NodeID(), Ctx: ep.CtxID}
			ready.Done(p)
			ready.Wait(p)
			errs[r] = lossyRank(p, ep, r, cl.Cfg.OS, sp, parent)
			if errs[r] != nil {
				return
			}
			if err := ep.Quiesce(p); err != nil {
				errs[r] = err
				return
			}
			// Stay alive until the peer has drained too: a quiesced rank
			// still re-ACKs duplicates, and the peer's final ACK may
			// have been the packet that was dropped.
			idle++
			for idle < 2 {
				if _, err := ep.Progress(p); err != nil {
					errs[r] = err
					return
				}
				p.Sleep(time.Microsecond)
			}
		})
	}
	if err := cl.Run(0); err != nil {
		return cellResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return cellResult{}, err
		}
	}
	return cellResult{eps: eps}, nil
}

// lossyRank is one rank's side of the lossy ping-pong.
func lossyRank(p *sim.Proc, ep *psm.Endpoint, r int, os cluster.OSType, sp *spans, parent int) error {
	maxSize := lossyLadder[len(lossyLadder)-1].size
	buf, err := ep.OS.MmapAnon(p, maxSize)
	if err != nil {
		return err
	}
	proc := ep.OS.Proc()
	peer := 1 - r
	want, got := make([]byte, maxSize), make([]byte, maxSize)
	verify := func(tag, size uint64) error {
		if err := proc.ReadAt(buf, got[:size]); err != nil {
			return err
		}
		if !bytes.Equal(got[:size], fillPattern(want[:size], tag)) {
			return fmt.Errorf("lossy-payload: rank %d received a corrupted payload (tag %d, size %d, %s)", r, tag, size, os)
		}
		return nil
	}
	tag := uint64(0)
	for _, step := range lossyLadder {
		for i := 0; i < step.reps; i++ {
			tag++
			if r == 1 {
				if err := ep.Recv(p, peer, tag, buf, step.size); err != nil {
					return err
				}
				if err := verify(tag, step.size); err != nil {
					return err
				}
				if err := ep.Send(p, peer, tag, buf, step.size); err != nil {
					return err
				}
				continue
			}
			if err := proc.WriteAt(buf, fillPattern(want[:step.size], tag)); err != nil {
				return err
			}
			b := sp.begin("bounce", parent)
			s := sp.begin("send", b)
			if err := ep.Send(p, peer, tag, buf, step.size); err != nil {
				return err
			}
			sp.end(s)
			rv := sp.begin("recv", b)
			if err := ep.Recv(p, peer, tag, buf, step.size); err != nil {
				return err
			}
			sp.end(rv)
			sp.end(b)
			if err := verify(tag, step.size); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillPattern writes the reference payload of one bounce into b.
func fillPattern(b []byte, tag uint64) []byte {
	for k := range b {
		b[k] = byte(uint64(k)*2654435761 + tag*97)
	}
	return b
}
