package main

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// A probe times one public call of a layer on a bare instance, outside
// any cluster: ops calls per batch, reported as the median ns per call
// over probeBatches batches.
const probeBatches = 5

type probe struct {
	name string
	ops  int
	// batch performs ops calls and returns the host time they took.
	batch func(ops int) (time.Duration, error)
}

var probes = []probe{
	{"sim.resume_ns", 200000, probeResume},
	{"sim.callback_ns", 200000, probeCallback},
	{"pagetable.walk_ns", 200000, probeWalk},
	{"hfi.build_requests_ns", 20000, probeBuildRequests},
	{"fabric.send_ns", 100000, probeFabricSend},
}

func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		var per []float64
		for i := 0; i < probeBatches; i++ {
			d, err := p.batch(p.ops)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			per = append(per, float64(d.Nanoseconds())/float64(p.ops))
		}
		out[p.name] = median(per)
	}
	return out, nil
}

// probeResume: one process that sleeps ops times, so every event is a
// process resume through the engine's dispatch loop.
func probeResume(ops int) (time.Duration, error) {
	e := sim.NewEngine(1)
	e.Go("probe", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	start := time.Now()
	err := e.Run(0)
	return time.Since(start), err
}

// probeCallback: a callback event that reschedules itself ops times,
// with no process involved.
func probeCallback(ops int) (time.Duration, error) {
	e := sim.NewEngine(1)
	left := ops
	var fire func(any)
	fire = func(any) {
		if left--; left > 0 {
			e.AfterArg(time.Nanosecond, fire, nil)
		}
	}
	e.AfterArg(time.Nanosecond, fire, nil)
	start := time.Now()
	err := e.Run(0)
	return time.Since(start), err
}

// probeWalk: extent gathering over a large-page-backed 4 MB mapping,
// the PicoDriver's page-table walk per SDMA submission.
func probeWalk(ops int) (time.Duration, error) {
	pt := pagetable.New()
	if err := pt.Map(pagetable.Size2M*16, 0x40000000, 4<<20, pagetable.Writable); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := pt.WalkExtents(pagetable.Size2M*16, 4<<20); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// probeBuildRequests: splitting a 4 MB expected receive into SDMA
// descriptors over 256K TID pairs.
func probeBuildRequests(ops int) (time.Duration, error) {
	exts := []mem.Extent{{Addr: 0x100000, Len: 4 << 20}}
	var tids []hfi.TIDPair
	for off := uint64(0); off < 4<<20; off += 256 << 10 {
		tids = append(tids, hfi.TIDPair{Idx: uint64(len(tids)), Len: 256 << 10})
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := hfi.BuildExpectedRequests(exts, 10240, tids); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// probeFabricSend: ops pooled 4K packets from port 0 to port 1 of a bare
// fabric, each Send followed by its delivery and release.
func probeFabricSend(ops int) (time.Duration, error) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := fabric.New(e, &pr)
	delivered := 0
	for node := 0; node < 2; node++ {
		if _, err := f.Attach(node, func(pkt *fabric.Packet) {
			delivered++
			f.Release(pkt)
		}); err != nil {
			return 0, err
		}
	}
	var sendErr error
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < ops && sendErr == nil; i++ {
			pkt := f.GetPacket()
			pkt.SrcNode, pkt.DstNode, pkt.Bytes = 0, 1, 4096
			sendErr = f.Send(p, pkt)
		}
	})
	start := time.Now()
	err := e.Run(0)
	d := time.Since(start)
	switch {
	case err != nil:
		return 0, err
	case sendErr != nil:
		return 0, sendErr
	case delivered != ops:
		return 0, fmt.Errorf("%d of %d packets delivered", delivered, ops)
	}
	return d, nil
}
