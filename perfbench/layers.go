package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// counts holds one cell's (or one pass's) layer counters by metric
// name. Every value comes from a public counter of the simulator after
// the cell has run, so all of them are exact and repeat bit for bit for
// a given seed. Ratios are derived from the sums in finishCounts.
type counts map[string]float64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func virtMS(d time.Duration) float64 { return float64(d) / 1e6 }

// collect reads every layer's counters from a finished cell.
func collect(cl *cluster.Cluster, res cellResult) counts {
	c := counts{}
	for _, e := range cl.Engines() {
		c["sim.events"] += float64(e.Seq())
	}
	if cl.Set != nil {
		c["sim.windows"] += float64(cl.Set.Windows)
		c["sim.cross_events"] += float64(cl.Set.CrossEvents)
	}
	for _, f := range cl.Fabrics() {
		b, p := f.TxTotals()
		c["fabric.bytes"] += float64(b)
		c["fabric.packets"] += float64(p)
		c["fabric.dropped"] += float64(f.FaultStats().Dropped)
		ps := f.PoolStats()
		c["fabric.pool_gets"] += float64(ps.BufGets + ps.PktGets)
		c["fabric.pool_hits"] += float64(ps.BufHits + ps.PktHits)
	}
	c["fabric.ties"] += float64(cl.Ties())
	for _, n := range cl.Nodes {
		c["hfi.sdma_requests"] += float64(n.NIC.SDMARequests)
		c["hfi.sdma_full"] += float64(n.NIC.SDMAFullSize)
		c["hfi.rx_packets"] += float64(n.NIC.RxPackets)
		c["hfi.irqs"] += float64(n.NIC.IRQsRaised)
		if n.Pico != nil {
			c["core.fast_calls"] += float64(n.Pico.FastWritevs + n.Pico.FastIoctls)
			c["core.fallback_calls"] += float64(n.Pico.FallbackCalls)
		}
		for _, busy := range n.Lin.Pool.Busy {
			c["linux.worker_busy_virt_ms"] += virtMS(busy)
		}
		c["linux.worker_items"] += float64(n.Lin.Pool.Executed)
		if n.Del != nil {
			c["ihk.offloads"] += float64(n.Del.Count)
			c["ihk.offload_virt_ms"] += virtMS(n.Del.Time)
		}
		if n.Mck != nil {
			c["mckernel.syscall_virt_ms"] += virtMS(n.Mck.Syscalls.Total())
			c["mckernel.ioctl_writev_virt_ms"] += virtMS(n.Mck.Syscalls.Time("ioctl") + n.Mck.Syscalls.Time("writev"))
		}
	}
	for _, ep := range res.eps {
		s := ep.Stats
		c["psm.sends_pio"] += float64(s.SendsPIO)
		c["psm.sends_eager"] += float64(s.SendsEagerSDMA)
		c["psm.sends_rdv"] += float64(s.SendsRdv)
		c["psm.sends_local"] += float64(s.SendsLocal)
		c["psm.unexpected"] += float64(s.Unexpected)
		c["psm.retransmits"] += float64(s.Retransmits)
		c["psm.msg_resends"] += float64(s.MsgResends)
		c["psm.timeouts"] += float64(s.Timeouts)
		c["psm.acks_naks"] += float64(s.AcksSent + s.NaksSent)
		c["psm.bytes_sent"] += float64(s.BytesSent)
	}
	if j := res.job; j != nil {
		c["mpi.elapsed_virt_ms"] += virtMS(j.Elapsed)
		c["mpi.wait_virt_ms"] += virtMS(j.MPI.Time("MPI_Wait") + j.MPI.Time("MPI_Waitall"))
		for _, e := range j.MPI.Top(0) {
			c["mpi.calls"] += float64(e.Count)
		}
	}
	return c
}

// msgs is the number of application-level psm sends: retransmits and
// acknowledgments are not messages.
func (c counts) msgs() float64 {
	return c["psm.sends_pio"] + c["psm.sends_eager"] + c["psm.sends_rdv"] + c["psm.sends_local"]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finishCounts turns a pass's summed counters into the reported
// per-layer count metrics: raw sums that are only ratio inputs are
// replaced by their ratios.
func finishCounts(c counts) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{
		"sim.events", "sim.windows", "sim.cross_events",
		"fabric.packets", "fabric.bytes", "fabric.dropped", "fabric.ties",
		"hfi.sdma_requests", "hfi.rx_packets", "hfi.irqs",
		"core.fast_calls",
		"ihk.offloads", "ihk.offload_virt_ms",
		"linux.worker_busy_virt_ms", "linux.worker_items", "mckernel.syscall_virt_ms",
		"psm.sends_pio", "psm.sends_eager", "psm.sends_rdv", "psm.unexpected",
		"psm.retransmits", "psm.timeouts",
		"mpi.elapsed_virt_ms", "mpi.wait_virt_ms", "mpi.calls",
	} {
		out[k] = c[k]
	}
	out["fabric.pool_hit_frac"] = ratio(c["fabric.pool_hits"], c["fabric.pool_gets"])
	out["hfi.sdma_full_frac"] = ratio(c["hfi.sdma_full"], c["hfi.sdma_requests"])
	out["core.fallback_frac"] = ratio(c["core.fallback_calls"], c["core.fast_calls"]+c["core.fallback_calls"])
	out["mckernel.ioctl_writev_frac"] = ratio(c["mckernel.ioctl_writev_virt_ms"], c["mckernel.syscall_virt_ms"])
	// Goodput: the share of wire packets that are not recovery traffic
	// (go-back-N resends, ACKs and NAKs). 1 on a loss-free fabric.
	out["psm.goodput_frac"] = 1 - ratio(c["psm.retransmits"]+c["psm.acks_naks"], c["fabric.packets"])
	return out
}

// check applies the per-cell correctness checks that hold for every
// workload: psm byte conservation, balanced TID programming and a
// fabric pool that got every packet and payload back.
func check(cl *cluster.Cluster, res cellResult) error {
	var sent, recv uint64
	for _, ep := range res.eps {
		sent += ep.Stats.BytesSent
		recv += ep.Stats.BytesRecv
	}
	if sent != recv {
		return fmt.Errorf("psm bytes sent %d != bytes received %d", sent, recv)
	}
	for _, n := range cl.Nodes {
		if n.NIC.TIDProgramOps != n.NIC.TIDClearOps {
			return fmt.Errorf("node %d: %d TID program ops but %d clear ops", n.ID, n.NIC.TIDProgramOps, n.NIC.TIDClearOps)
		}
	}
	// Summed over shards: a cross-shard packet leaves one shard's pool
	// and returns to the receiver's.
	var pool fabric.PoolStats
	for _, f := range cl.Fabrics() {
		ps := f.PoolStats()
		pool.PktGets += ps.PktGets
		pool.PktPuts += ps.PktPuts
		pool.BufGets += ps.BufGets
		pool.BufPuts += ps.BufPuts
	}
	if pool.PktGets != pool.PktPuts || pool.BufGets != pool.BufPuts {
		return fmt.Errorf("fabric pool imbalance at teardown: packets %d/%d, buffers %d/%d (gets/puts)",
			pool.PktGets, pool.PktPuts, pool.BufGets, pool.BufPuts)
	}
	return nil
}

// digest folds the outcome a shard count must not change: the virtual
// end time, the job's timings and rank distribution, and every counter
// that sums over nodes, fabrics or endpoints. Engine event counts,
// shard statistics and freelist hits are partition-dependent and stay
// out.
func digest(cl *cluster.Cluster, res cellResult) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(cl.Now()))
	if j := res.job; j != nil {
		word(uint64(j.Elapsed))
		word(uint64(j.WallTime))
		word(uint64(j.RankElapsed.P50()))
		word(uint64(j.RankElapsed.P99()))
		word(uint64(j.Ranks))
	}
	c := collect(cl, res)
	keys := make([]string, 0, len(c))
	for k := range c {
		switch k {
		case "sim.events", "sim.windows", "sim.cross_events", "fabric.pool_hits":
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		word(uint64(c[k] * 1e6))
	}
	return h.Sum64()
}
