// Pooled execution sessions.
//
// A sweep runs many trials of one cell — one (object, n, adversary, fault
// plan) configuration — varying only the seed and possibly the inputs. Before
// the exec.Session seam, every trial paid the full construction cost again:
// a fresh object, register file, scheduler, compiled fault injector, and (on
// sim) n coroutines with all their buffers. The session types here construct
// that cell once per pooled session and replay it per trial through
// exec.Session.Run(ctx, seed), which on reusable backends (sim) rewinds the
// engine in place — zero allocations per trial below the harness.
//
// The pool hands each worker a session for the duration of one trial, and
// the worker hands it back once the trial's result is folded: merged, or
// copied aside to wait for its turn. Each session owns one reusable run
// whose buffers every trial overwrites, so nothing is copied per trial
// unless the result has to wait. Sessions return to the pool only on
// normal return: a trial that panics never hands its session back, so a
// session whose engine may be mid-unwind (poisoned) is abandoned rather
// than recycled, and a session that reports exec.ErrSessionPoisoned is
// closed on the spot. The robust trial engine's abandoned attempts
// (deadline overruns that never came back) keep their session checked out
// until they return, and it is then discarded — never reusing state a
// runaway goroutine might have touched.
//
// Determinism: a trial's outcome is a pure function of (cell, seed, inputs).
// Engine.Reset restores registers, scheduler state, and RNG streams from the
// seed alone, so which pooled session runs a trial — and how many trials it
// ran before — cannot affect the result. Sweep aggregates therefore stay
// bit-identical at any worker count, pooled or not.
package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// ObjectSweep describes one object cell of a sweep.
type ObjectSweep struct {
	// Build constructs the cell: a fresh object and its configuration
	// (register file, scheduler, faults, …). It is called once per pooled
	// session — at most once per worker, not once per trial — so everything
	// it builds is reused across that session's trials. Config.Seed and
	// Config.Context are ignored (each trial's seed and context are supplied
	// by the engine); Config.Inputs is the default input assignment.
	Build func() (core.Object, ObjectConfig)
	// Inputs, if non-nil, overrides the configuration's inputs per trial
	// (same resolution rule: one value per process, or a single value
	// broadcast to all). Returning nil keeps the config's inputs for that
	// trial.
	Inputs func(t Trial) []value.Value
}

// ProtocolSweep describes one protocol cell of a sweep, mirroring
// ObjectSweep.
type ProtocolSweep struct {
	// Build constructs the cell's protocol and configuration; see
	// ObjectSweep.Build for the once-per-session contract.
	Build func() (*core.Protocol, ObjectConfig)
	// Inputs optionally overrides the configuration's inputs per trial; see
	// ObjectSweep.Inputs.
	Inputs func(t Trial) []value.Value
	// Release, if non-nil, receives the protocol of every session the sweep
	// closes cleanly, once the session is done with it, so Build may hand
	// out pooled instances and take them back here. Sessions that were
	// poisoned or abandoned are never released.
	Release func(p *core.Protocol)
}

// errPoolClosed is returned by sessionPool.get after closeAll; it can only
// surface when a worker races the sweep's teardown, by which point the sweep
// is already ending.
var errPoolClosed = errors.New("harness: session pool closed")

// session is what the pool holds: one cell, replayed per trial. The run
// runTrial returns is the session's own and is overwritten by its next
// trial. close(clean) tears the session down; clean is false for sessions
// that were poisoned or abandoned.
type session[R any] interface {
	comparable
	runTrial(ctx context.Context, t Trial) (R, error)
	close(clean bool)
}

// sessionPool hands out sessions to workers, one per in-flight trial. make
// is called when the free list is empty, so a sweep creates at most
// workers-many sessions (plus replacements for discarded ones).
type sessionPool[S session[R], R any] struct {
	make func() (S, error)

	mu     sync.Mutex
	free   []S
	closed bool
}

func newSessionPool[S session[R], R any](mk func() (S, error)) *sessionPool[S, R] {
	return &sessionPool[S, R]{make: mk}
}

func (p *sessionPool[S, R]) get() (S, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		var zero S
		return zero, errPoolClosed
	}
	return p.make()
}

// release returns a session whose result has been folded. A session that
// reported exec.ErrSessionPoisoned is closed unclean instead; after
// closeAll (a late return) a clean session is closed rather than pooled —
// the pool never resurrects. The zero S (no session) is ignored.
func (p *sessionPool[S, R]) release(s S, err error) {
	var zero S
	if s == zero {
		return
	}
	if errors.Is(err, exec.ErrSessionPoisoned) {
		s.close(false)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.close(true)
		return
	}
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// closeAll closes every free session and marks the pool closed. Sessions
// still checked out by abandoned attempts are not touched — their goroutines
// may be live inside Run — and are discarded if the attempt ever returns.
func (p *sessionPool[S, R]) closeAll() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.closed = true
	p.mu.Unlock()
	for _, s := range free {
		s.close(true)
	}
}

// sessionExecutor runs each trial on a session from pool, leaving the
// result in the session's buffers until the loop has folded it. park
// copies out a result that must wait for its turn, and slots keeps the
// slots holding such copies from one sweep to the next.
func sessionExecutor[S session[R], R any](pool *sessionPool[S, R], park func(buf *R, r R) R, slots *sync.Pool) executor[S, R] {
	return executor[S, R]{
		run: func(ctx context.Context, t Trial) (S, R, error) {
			s, err := pool.get()
			if err != nil {
				var r R
				return s, r, err
			}
			r, err := s.runTrial(ctx, t)
			return s, r, err
		},
		release: pool.release,
		park:    park,
		slots:   slots,
	}
}

// objectSlots and protocolSlots keep the reorder slots of object and
// protocol sweeps, copy storage included, between sweeps, so that a
// sweep's out-of-order trials do not allocate either.
var objectSlots, protocolSlots sync.Pool

// copyResult deep-copies src into dst, reusing dst's buffers. The trace is
// left to the caller, which attaches its own snapshot.
func copyResult(dst, src *exec.Result) {
	stalled := dst.Stalled[:0]
	*dst = exec.Result{
		Outputs:   append(dst.Outputs[:0], src.Outputs...),
		Halted:    append(dst.Halted[:0], src.Halted...),
		Crashed:   append(dst.Crashed[:0], src.Crashed...),
		Work:      append(dst.Work[:0], src.Work...),
		TotalWork: src.TotalWork,
		Steps:     src.Steps,
	}
	if src.Stalled != nil {
		dst.Stalled = append(stalled, src.Stalled...)
	}
}

// parkResult copies a session-owned result into *buf (allocated on first
// use), or returns nil for a run without one.
func parkResult(buf **exec.Result, src *exec.Result, tr *trace.Log) *exec.Result {
	if src == nil {
		return nil
	}
	if *buf == nil {
		*buf = new(exec.Result)
	}
	copyResult(*buf, src)
	(*buf).Trace = tr
	return *buf
}

// parkObjectRun copies a session-owned object run into *buf, reusing its
// buffers; only a traced run allocates (its trace snapshot).
func parkObjectRun(buf **ObjectRun, r *ObjectRun) *ObjectRun {
	if r == nil {
		return nil
	}
	if *buf == nil {
		*buf = new(ObjectRun)
	}
	cp := *buf
	cp.Trace = r.Trace.Clone()
	cp.Result = parkResult(&cp.Result, r.Result, cp.Trace)
	cp.Decisions = append(cp.Decisions[:0], r.Decisions...)
	return cp
}

// parkProtocolRun is parkObjectRun for protocol runs.
func parkProtocolRun(buf **ProtocolRun, r *ProtocolRun) *ProtocolRun {
	if r == nil {
		return nil
	}
	if *buf == nil {
		*buf = new(ProtocolRun)
	}
	cp := *buf
	cp.Trace = r.Trace.Clone()
	cp.Result = parkResult(&cp.Result, r.Result, cp.Trace)
	cp.Decided = append(cp.Decided[:0], r.Decided...)
	cp.DecidedIdx = append(cp.DecidedIdx[:0], r.DecidedIdx...)
	cp.Violation = r.Violation
	cp.stageOf = r.stageOf
	return cp
}

// sessionInputs owns the per-trial input resolution shared by both session
// kinds: a base assignment resolved once at build, a per-trial override hook,
// and the live buffer the program closures read.
type sessionInputs struct {
	n    int
	base []value.Value // resolved cfg.Inputs (len n)
	hook func(t Trial) []value.Value
	live []value.Value // what programs read; rewritten per trial
}

func (si *sessionInputs) set(t Trial) error {
	src := si.base
	if si.hook != nil {
		if vals := si.hook(t); vals != nil {
			src = vals
		}
	}
	switch len(src) {
	case si.n:
		copy(si.live, src)
	case 1:
		for i := range si.live {
			si.live[i] = src[0]
		}
	default:
		return fmt.Errorf("harness: %d inputs for %d processes", len(src), si.n)
	}
	return nil
}

// objectSession is one pooled cell of an object sweep: a built object, its
// backend session, and the run its program closures write into.
type objectSession struct {
	sess exec.Session
	in   sessionInputs
	run  ObjectRun // Decisions and Trace are session-owned; rewritten per trial
}

// newObjectSession builds a session for obj under cfg; hook, if non-nil,
// overrides cfg.Inputs per trial.
func newObjectSession(obj core.Object, cfg ObjectConfig, hook func(t Trial) []value.Value) (*objectSession, error) {
	be, err := cfg.backend()
	if err != nil {
		return nil, err
	}
	base, err := cfg.inputs()
	if err != nil {
		return nil, err
	}
	os := &objectSession{
		in:  sessionInputs{n: cfg.N, base: base, hook: hook, live: make([]value.Value, cfg.N)},
		run: ObjectRun{Decisions: make([]value.Decision, cfg.N)},
	}
	if cfg.Traced {
		os.run.Trace = trace.New()
	}
	prog := func(e core.Env) value.Value {
		v := os.in.live[e.PID()]
		e.MarkInvoke(obj.Label(), v)
		d := obj.Invoke(e, v)
		e.MarkReturn(obj.Label(), d)
		os.run.Decisions[e.PID()] = d
		return d.V
	}
	os.sess, err = be.NewSession(cfg.execConfig(os.run.Trace), prog)
	if err != nil {
		return nil, err
	}
	return os, nil
}

// runTrial executes one trial into the session's run and returns it; the
// run is overwritten by the session's next trial.
func (os *objectSession) runTrial(ctx context.Context, t Trial) (*ObjectRun, error) {
	if err := os.in.set(t); err != nil {
		return nil, err
	}
	for i := range os.run.Decisions {
		os.run.Decisions[i] = value.Decision{V: value.None}
	}
	res, err := os.sess.Run(ctx, t.Seed)
	os.run.Result = res
	return &os.run, err
}

func (os *objectSession) close(bool) { _ = os.sess.Close() }

// protocolSession is one pooled cell of a protocol sweep, and the engine
// behind every ProtocolSession. Decisions are recorded through
// core.Protocol.RunIndexed into the session's run, never into the
// protocol, whose own state lives entirely in its registers.
type protocolSession struct {
	sess    exec.Session
	in      sessionInputs
	mon     check.Monitor // reset per trial
	run     ProtocolRun   // Decided, DecidedIdx and Trace are session-owned
	proto   *core.Protocol
	release func(*core.Protocol)
}

// newProtocolSession builds a session for proto under cfg; hook, if
// non-nil, overrides cfg.Inputs per trial, and release, if non-nil,
// receives proto when the session is closed cleanly.
func newProtocolSession(proto *core.Protocol, cfg ObjectConfig, hook func(t Trial) []value.Value, release func(*core.Protocol)) (*protocolSession, error) {
	be, err := cfg.backend()
	if err != nil {
		return nil, err
	}
	base, err := cfg.inputs()
	if err != nil {
		return nil, err
	}
	ps := &protocolSession{
		in: sessionInputs{n: cfg.N, base: base, hook: hook, live: make([]value.Value, cfg.N)},
		run: ProtocolRun{
			Decided:    make([]bool, cfg.N),
			DecidedIdx: make([]int32, cfg.N),
			stageOf:    proto.StageOfIndex,
		},
		proto:   proto,
		release: release,
	}
	if cfg.Traced {
		ps.run.Trace = trace.New()
	}
	// The online monitor checks each decision the moment it lands (from
	// concurrently running goroutines on the live backend), so a violation
	// is caught even if the execution never finishes cleanly.
	prog := func(e core.Env) value.Value {
		out, idx, ok := proto.RunIndexed(e, ps.in.live[e.PID()])
		ps.run.Decided[e.PID()] = ok
		ps.run.DecidedIdx[e.PID()] = int32(idx)
		if ok {
			ps.mon.Observe(e.PID(), out)
		}
		return out
	}
	ps.sess, err = be.NewSession(cfg.execConfig(ps.run.Trace), prog)
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// buildProtocolSession builds one pooled session of a protocol sweep.
func buildProtocolSession(s Sweep, spec ProtocolSweep) (*protocolSession, error) {
	proto, cfg := spec.Build()
	cfg.Meter = s.Meter
	return newProtocolSession(proto, cfg, spec.Inputs, spec.Release)
}

// runTrial executes one trial into the session's run and returns it; the
// run is overwritten by the session's next trial.
func (ps *protocolSession) runTrial(ctx context.Context, t Trial) (*ProtocolRun, error) {
	if err := ps.in.set(t); err != nil {
		return nil, err
	}
	for i := range ps.run.Decided {
		ps.run.Decided[i] = false
		ps.run.DecidedIdx[i] = -1
	}
	// The monitor checks each decision online as it lands; it is reset
	// after the trial's inputs are in place, since it checks validity
	// against them.
	ps.mon.Reset(ps.in.live)
	res, err := ps.sess.Run(ctx, t.Seed)
	ps.run.Result = res
	ps.run.Violation = ps.mon.Err()
	return &ps.run, err
}

func (ps *protocolSession) close(clean bool) {
	_ = ps.sess.Close()
	if clean && ps.release != nil {
		ps.release(ps.proto)
	}
}

// ProtocolSession runs one protocol instance many times over a warm backend
// session: on sim, the engine with its n parked coroutines, the per-process
// input and decision buffers, and the online monitor are built by the first
// Run and reused by every later one, so a warm Run allocates nothing below
// the caller. Each Run brings its own adversary, seed, inputs and context;
// the rest of its configuration — backend, process count, register file,
// register model, cheap collect, step limit, tracing, meter and fault plan —
// shapes the session, and a Run whose shape differs from the session's
// rebuilds it. RunProtocol is a ProtocolSession used once.
//
// The run a Run returns is session-owned: the next Run overwrites it.
// A ProtocolSession is not safe for concurrent use, and the backend session
// behind it holds no reference to it, so an owner that drops it can close
// it from a finalizer.
type ProtocolSession struct {
	proto *core.Protocol
	ps    *protocolSession // nil until the first Run, and after Close
	shape sessionShape
	// image is the register file's contents before the first run on it: a
	// rebuild restores it, since a backend session snapshots the file as
	// it finds it and runs leave it dirty.
	image []value.Value
}

// rebindable is a backend session whose adversary can be replaced between
// runs: the sim session and exec's one-shot fallback, the sessions every
// backend's NewSession returns.
type rebindable interface {
	SetScheduler(s sched.Scheduler) error
}

// sessionShape is the part of an ObjectConfig a backend session is built
// for; Run compares it to decide between replaying and rebuilding.
type sessionShape struct {
	backend      exec.Backend
	n            int
	file         *register.File
	traced       bool
	cheapCollect bool
	registers    register.Semantics
	maxSteps     int
	meter        *obs.Meter
	faults       *fault.Plan // merged with CrashAfter; owned by the shape
}

func (a *sessionShape) equal(b *sessionShape) bool {
	return a.backend == b.backend && a.n == b.n && a.file == b.file &&
		a.traced == b.traced && a.cheapCollect == b.cheapCollect &&
		a.registers == b.registers && a.maxSteps == b.maxSteps &&
		a.meter == b.meter && a.faults.Equal(b.faults)
}

// NewProtocolSession returns a session for p; nothing is built until the
// first Run.
func NewProtocolSession(p *core.Protocol) *ProtocolSession {
	return &ProtocolSession{proto: p}
}

// Run executes the protocol once under cfg and returns the session-owned
// run, rebuilding the backend session first when cfg's shape differs from
// the one it was built for. A session the backend reports poisoned is
// closed, so the next Run rebuilds it.
func (s *ProtocolSession) Run(cfg ObjectConfig) (*ProtocolRun, error) {
	be, err := cfg.backend()
	if err != nil {
		return nil, err
	}
	shape := sessionShape{
		backend: be, n: cfg.N, file: cfg.File, traced: cfg.Traced,
		cheapCollect: cfg.CheapCollect, registers: cfg.Registers,
		maxSteps: cfg.MaxSteps, meter: cfg.Meter,
		faults: fault.Merge(cfg.Faults, fault.FromCrashMap(cfg.CrashAfter)),
	}
	if s.ps != nil && s.shape.equal(&shape) {
		if err := s.ps.sess.(rebindable).SetScheduler(cfg.Scheduler); err != nil {
			return nil, err
		}
		s.ps.in.base = cfg.Inputs
	} else {
		s.Close()
		switch {
		case cfg.File == nil: // the backend reports it
		case s.image == nil || s.shape.file != cfg.File:
			s.image = cfg.File.Contents()
		default:
			if err := cfg.File.Restore(s.image); err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
		}
		cfg.Backend, cfg.Faults, cfg.CrashAfter = be, shape.faults, nil
		if s.ps, err = newProtocolSession(s.proto, cfg, nil, nil); err != nil {
			return nil, err
		}
		s.shape = shape
	}
	run, err := s.ps.runTrial(cfg.Context, Trial{Seed: cfg.Seed})
	if errors.Is(err, exec.ErrSessionPoisoned) {
		s.Close()
	}
	return run, err
}

// Close releases the backend session (coroutines, buffers). The
// ProtocolSession stays usable: the next Run rebuilds.
func (s *ProtocolSession) Close() {
	if s.ps != nil {
		s.ps.close(false)
		s.ps = nil
	}
}
