// Package sim provides a deterministic discrete-event simulation engine
// with virtual-time processes.
//
// The engine owns a virtual clock and an event heap. Simulated processes
// are goroutines, but exactly one goroutine holds the engine token at
// any instant, so no locking is needed inside simulation code and runs
// are reproducible. Whoever holds the token dispatches: it pops events
// in (time, sequence) order, runs callback events inline, and hands the
// token straight to the next process to resume (a process that resumes
// itself keeps it without a goroutine switch). Run's goroutine only
// regains the token once the queue is drained up to the run's bound.
// Events that fire at the same virtual time are ordered by their
// scheduling sequence number.
//
// All timing uses time.Duration as virtual nanoseconds since the start of
// the run.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Engine is a discrete-event simulator. Create one with NewEngine, add
// processes with Go, execute with Run, and release the goroutines of
// processes still parked at the end with Close. An Engine must not be
// shared between concurrently running simulations.
type Engine struct {
	now    time.Duration
	seq    uint64
	heap   eventHeap
	rng    *xrand.Rand
	procs  map[*Proc]struct{}
	live   int
	failv  any
	rnd    uint64 // cheap deterministic counter for Rng-free jitter
	rec    *trace.Recorder
	states []regState // snapshot section encoders, registration order

	// Sharded-mode wiring (nil/zero on a standalone engine): the set this
	// engine is a shard of, its shard index, and the per-shard emission
	// counter that orders its outbound cross-shard events. See shard.go.
	set      *ShardSet
	shard    int
	crossSeq uint64

	// Dispatch state. bound is the exclusive time bound of the current
	// run or window: step executes only events before it. parked hands
	// the token back to the goroutine driving runWindow once nothing
	// before the bound is left. cbSeq is the sequence number of the
	// callback event step is executing (0: none), so a panic raised
	// inside it is reported as the event's, not as that of whichever
	// process's goroutine happened to carry the token. closed is set
	// by Close.
	bound  time.Duration
	parked chan struct{}
	cbSeq  uint64
	closed bool
}

// regState is one registered snapshot contributor.
type regState struct {
	label string
	fn    func(*snapshot.Enc)
}

// eventKind selects how a popped event is dispatched. The dominant
// event types — process resumptions from Sleep, wake and spawn — carry
// the *Proc directly (evProc) so scheduling them allocates nothing; the
// general evFn path keeps the closure for everything else (After
// callbacks, device completions).
type eventKind uint8

const (
	evFn eventKind = iota
	evProc
	evArg
)

type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	p    *Proc
	fn   func()
	afn  func(any)
	arg  any
}

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    xrand.New(seed),
		parked: make(chan struct{}),
		procs:  make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Seq returns the number of events scheduled on this engine so far (it
// is also the snapshot header's sequence counter).
func (e *Engine) Seq() uint64 { return e.seq }

// SetRecorder attaches a span recorder. Instrumented layers read it
// through Recorder(); a nil recorder (the default) disables tracing at
// the cost of a nil check per span site.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// Recorder returns the attached span recorder (nil when tracing is
// off; all trace.Recorder methods are nil-safe).
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Fail records err as a fatal simulation failure: Run returns it once the
// current event finishes. It exists for code running in event or device
// context (NIC receive pipelines, IRQ delivery) where there is no process
// whose return value could carry the error; process bodies should return
// errors normally instead. Only the first failure is kept.
func (e *Engine) Fail(err error) {
	if e.failv == nil && err != nil {
		e.failv = err
	}
}

// Rng returns the engine's deterministic random source. It must only be
// used from simulation context (an event callback or a running process).
// The generator's state is part of the engine snapshot, so draws made
// by a restored run continue the straight run's sequence exactly.
func (e *Engine) Rng() *xrand.Rand { return e.rng }

// At schedules fn to run at absolute virtual time at. Times in the past
// are clamped to the present.
func (e *Engine) At(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.heap.push(event{at: at, seq: e.seq, kind: evFn, fn: fn})
}

// atProc schedules p to resume at absolute virtual time at without
// allocating a closure. It follows the exact clamping and sequencing of
// At, so the (at, seq) total order is identical to the closure path it
// replaces.
func (e *Engine) atProc(at time.Duration, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.heap.push(event{at: at, seq: e.seq, kind: evProc, p: p})
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

// AfterArg schedules fn(arg) to run d from now. Unlike After it
// allocates nothing when fn is a reused func value and arg is a
// pointer: hot callers (the fabric schedules one delivery per packet)
// pool their argument records and pass the same fn every time.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) {
	at := e.now + d
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.heap.push(event{at: at, seq: e.seq, kind: evArg, afn: fn, arg: arg})
}

// Proc is a simulated process. Its methods must only be called from the
// goroutine executing the process body.
type Proc struct {
	e      *Engine
	name   string
	resume chan struct{}
	state  string // for deadlock diagnostics
	daemon bool
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Go creates a process executing fn, starting at the current virtual
// time. fn runs in its own goroutine but only while it holds the engine
// token; it yields by calling blocking Proc methods (Sleep, Queue.Pop,
// Cond.Wait, ...).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon creates an infrastructure process (CPU worker, NIC engine,
// ...) that is expected to block forever: daemons do not keep Run alive
// and do not count as deadlocked.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{e: e, name: name, resume: make(chan struct{}), daemon: daemon}
	e.procs[p] = struct{}{}
	e.live++
	go func() {
		defer e.exit(p)
		<-p.resume
		if !e.closed {
			fn(p)
		}
	}()
	e.atProc(e.now, p)
	return p
}

// exit retires a process whose body returned or panicked and hands the
// token onward. On a closed engine it only acknowledges the release.
func (e *Engine) exit(p *Proc) {
	if e.closed {
		e.parked <- struct{}{}
		return
	}
	if r := recover(); r != nil {
		e.fault(r, p)
	}
	e.live--
	delete(e.procs, p)
	e.handoff()
}

// block parks the calling process until it is woken via wake, running
// the queue on its goroutine in the meantime.
func (p *Proc) block(state string) {
	e := p.e
	if e.closed {
		// A deferred call of a process released by Close tried to block.
		runtime.Goexit()
	}
	p.state = state
	if q := e.step(); q != p {
		// (q == p: the next event is this process's own resumption, a
		// sleep nothing else interleaves with, so it keeps the token.)
		if q == nil {
			e.parked <- struct{}{}
		} else {
			q.resume <- struct{}{}
		}
		<-p.resume
		if e.closed {
			runtime.Goexit()
		}
	}
	p.state = ""
}

// step executes queued events before the bound until it reaches a
// process resumption, which it returns for the caller to hand the token
// to (nil: nothing before the bound is left, or a failure is pending).
// Callback events run inline on the calling goroutine.
func (e *Engine) step() *Proc {
	for len(e.heap) > 0 && e.heap[0].at < e.bound && e.failv == nil {
		ev := e.heap.pop()
		e.now = ev.at
		if ev.kind == evProc {
			return ev.p
		}
		e.cbSeq = ev.seq
		if ev.kind == evArg {
			ev.afn(ev.arg)
		} else {
			ev.fn()
		}
		e.cbSeq = 0
	}
	return nil
}

// handoff passes the token onward from a process that has finished:
// directly to the next runnable process, or back to the run's driver
// once nothing before the bound is left.
func (e *Engine) handoff() {
	defer func() {
		// A callback run by step panicked; the finished process is
		// already retired, so the event owns the failure.
		if r := recover(); r != nil {
			e.fault(r, nil)
			e.parked <- struct{}{}
		}
	}()
	if q := e.step(); q != nil {
		q.resume <- struct{}{}
	} else {
		e.parked <- struct{}{}
	}
}

// fault records a recovered panic as the run's failure. A panic raised
// while step ran a callback belongs to that event, whichever goroutine
// carried the token (p is nil where only a callback can panic); any
// other panic belongs to the process p.
func (e *Engine) fault(r any, p *Proc) {
	if e.failv == nil {
		pe := &PanicError{Value: r, Stack: debug.Stack()}
		if e.cbSeq != 0 {
			pe.Event = fmt.Sprintf("callback seq=%d at %v", e.cbSeq, e.now)
		} else {
			pe.Proc = p.name
		}
		e.failv = pe
	}
	e.cbSeq = 0
}

// wake schedules p to resume at the current virtual time.
func (e *Engine) wake(p *Proc) {
	e.atProc(e.now, p)
}

// Sleep advances the process's virtual time by d. Negative durations are
// treated as zero.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	e.atProc(e.now+d, p)
	p.block("sleep")
}

// Yield lets every event already scheduled for the current instant run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// PanicError is returned (wrapped) by Run when a simulated process or a
// callback event panics. It names the process (Proc) or the event
// (Event), and preserves the panic value and the goroutine stack
// captured at recover time; it unwraps via errors.As.
type PanicError struct {
	Proc  string
	Event string // "callback seq=N at T" when a callback panicked
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Event != "" {
		return fmt.Sprintf("%s panicked: %v\n%s", e.Event, e.Value, e.Stack)
	}
	return fmt.Sprintf("proc %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// DeadlockError is returned by Run when processes remain blocked but no
// events are pending.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string // "name [state]" of each parked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %v",
		d.Now, len(d.Blocked), d.Blocked)
}

// Run executes events until the heap is empty or until limit (if > 0) is
// reached. It returns a *DeadlockError if processes remain blocked with
// no pending events, and a *PanicError (wrapped) if any process or
// callback panicked.
//
// Run is resumable: an event past the limit stays queued, so
// Run(t) followed by Run(0) reaches exactly the same final state as a
// single Run(0).
func (e *Engine) Run(limit time.Duration) error {
	if e.set != nil {
		// A shard must advance in lockstep windows with its set;
		// running it alone would overtake cross-shard deliveries.
		panic("sim: Run called on a sharded engine (drive it with ShardSet.Run)")
	}
	bound := time.Duration(math.MaxInt64)
	if limit > 0 {
		// Events at exactly limit execute; the bound is exclusive.
		bound = limit + 1
	}
	if err := e.runWindow(bound); err != nil {
		return err
	}
	if len(e.heap) > 0 {
		e.now = limit
		return nil
	}
	return deadlock(e.now, []*Engine{e})
}

// runWindow processes every queued event with time strictly before
// bound: the token travels from process to process, and the calling
// goroutine only regains it once nothing before the bound is left (or
// a failure latched). No limit handling and no deadlock detection; the
// callers do that.
func (e *Engine) runWindow(bound time.Duration) error {
	if e.closed {
		panic("sim: Run on a closed engine")
	}
	e.bound = bound
	e.dispatch()
	if e.failv != nil {
		if err, ok := e.failv.(error); ok {
			return fmt.Errorf("sim: %w", err)
		}
		return fmt.Errorf("sim: %v", e.failv)
	}
	return nil
}

// dispatch starts the token on its way and waits for it to come back.
// Callbacks step runs here execute on the driving goroutine, so their
// panics are recovered here.
func (e *Engine) dispatch() {
	defer func() {
		if r := recover(); r != nil {
			e.fault(r, nil)
		}
	}()
	if q := e.step(); q != nil {
		q.resume <- struct{}{}
		<-e.parked
	}
}

// deadlock returns a *DeadlockError naming every non-daemon process
// still blocked on engines whose queues have drained, or nil.
func deadlock(now time.Duration, engines []*Engine) error {
	var blocked []string
	for _, e := range engines {
		for p := range e.procs {
			if !p.daemon {
				blocked = append(blocked, fmt.Sprintf("%s [%s]", p.name, p.state))
			}
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: now, Blocked: blocked}
}

// Close releases every process still parked on the engine (daemons
// blocked forever, and whatever a limited, failed or deadlocked Run
// left behind) so their goroutines exit and the simulation they
// reference can be collected. A released process runs no further
// simulation code: its goroutine exits through runtime.Goexit, which
// runs only the body's deferred calls, and nothing is dispatched. Call
// Close between runs, once the engine's results have been read; Run on
// a closed engine panics.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.rec = nil // deferred calls of released processes record no spans
	for p := range e.procs {
		close(p.resume)
		<-e.parked // one at a time: deferred calls never overlap
	}
}

// eventHeap is a binary min-heap ordered by (at, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
