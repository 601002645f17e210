package sim

// The lane engine: batched trial execution without coroutines.
//
// Engine already amortizes per-trial *construction* (registers, RNG state,
// buffers) across trials, but every scheduled operation still pays one
// iter.Pull coroutine round trip — measured at ~131ns on its own, roughly
// half the cost of a step. A lane replaces the coroutine with an op-coded
// state machine: the process publishes its next operation by *returning*
// from LaneProc.Step instead of suspending inside an Env call, so the
// dispatch loop is a plain function call with no stack switch. Everything
// else — scheduler views, fault thresholds, RNG stream derivation, crash
// and stall semantics, work accounting — is mirrored from Engine statement
// for statement, which is what makes lane execution bit-identical to
// coroutine execution for equivalent programs (pinned by the differential
// tests in lane_test.go).
//
// A LaneEngine runs the trials of a lane strictly sequentially, exactly as
// a pooled Engine does; "lane" refers to the batch seam (exec.BatchSession)
// through which K trials arrive as one call and share all per-trial
// machinery, not to any interleaving of trials.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// LaneOp is one pending shared-memory operation published by an op-coded
// process: the state-machine analogue of the coroutine request an Env call
// would publish. Kind selects the operation; Reg/Val/Num/Den/Arr carry its
// operands exactly as the corresponding Env method would (Arr only for
// OpCollect, Num/Den only for OpProbWrite).
type LaneOp struct {
	Kind sched.OpKind
	Reg  register.Reg
	Arr  register.Array
	Val  value.Value
	Num  uint64
	Den  uint64
}

// LaneEnv is an op-coded process's view of the world. The engine writes the
// response slots (RVal, ROK, RVals) before resuming the process; the process
// writes the publication slots (Op on a true return from Step, Out on a
// false one). Coin methods are local, free, and draw from the same
// seed-derived stream as Env's, in the same order — an op-coded program that
// flips coins at the same points as its closure twin sees identical coins.
//
// RVals, like Env.Collect's result, is backed by an engine-owned buffer that
// is reused on the next collect; copy on escape.
//
// A LaneEnv belongs to exactly one process and must not be shared.
type LaneEnv struct {
	pid   int
	n     int
	cheap bool
	coins *xrand.Source

	// Response slots, engine-written before each Step: the result of the
	// operation the process published on its previous Step.
	RVal  value.Value   // OpRead: the value read
	ROK   bool          // OpProbWrite: whether the write took effect
	RVals []value.Value // OpCollect: the snapshot (engine-owned, reused)

	// Publication slots, process-written before Step returns.
	Op  LaneOp      // the next operation, when Step returns true
	Out value.Value // the decision value, when Step returns false
}

// PID returns this process's id in [0, N).
func (e *LaneEnv) PID() int { return e.pid }

// N returns the number of processes.
func (e *LaneEnv) N() int { return e.n }

// CheapCollect reports whether the cheap-collect cost model is active.
// Op-coded programs must honor it exactly as Env.Collect does: publish
// OpCollect only under the cheap model, and issue arr.Len individual OpReads
// otherwise.
func (e *LaneEnv) CheapCollect() bool { return e.cheap }

// CoinUint64 flips 64 local coin bits. Cost: 0.
func (e *LaneEnv) CoinUint64() uint64 { return e.coins.Uint64() }

// CoinBool flips one fair local coin. Cost: 0.
func (e *LaneEnv) CoinBool() bool { return e.coins.Bool() }

// CoinIntn returns a uniform local random integer in [0, n). Cost: 0.
func (e *LaneEnv) CoinIntn(n int) int { return e.coins.Intn(n) }

// LaneProc is one op-coded process: an explicit state machine over the
// program's scheduling points. Reset rewinds it to the top of its program;
// Step either publishes the next pending operation in e.Op and returns true,
// or halts with the decision value in e.Out and returns false. Between the
// two calls the engine executes the published operation and fills e's
// response slots, so Step's first action is typically to consume the
// response of the operation it published last time.
//
// The contract is exactly the coroutine contract with the suspension turned
// inside out; a LaneProc whose operation/coin sequence matches a closure
// Program produces bit-identical executions (the differential tests pin
// this for the workload twins in lane_test.go).
type LaneProc interface {
	Reset()
	Step(e *LaneEnv) bool
}

// LaneProgram constructs the LaneProc for one process, the op-coded
// analogue of a Program closure. It is called once per process at engine
// construction; Reset, not reconstruction, begins each trial.
type LaneProgram func(pid, n int) LaneProc

// laneProc is the engine-side state of one op-coded process.
type laneProc struct {
	lp      LaneProc
	env     LaneEnv
	pending LaneOp
	hasOp   bool
	halted  bool
	crashed bool
	stalled bool
}

// LaneEngine is the op-coded mirror of Engine: a reusable simulator for one
// (lane programs, scheduler, config) cell whose processes are LaneProc state
// machines instead of coroutines, removing the coroutine round trip from
// every scheduled operation. Usage, ownership, and poisoning semantics are
// identical to Engine's: Reset-then-Run once per trial, results are
// engine-owned, a panicking trial poisons the engine.
//
// Lanes are traceless: NewLaneEngine rejects configs with a trace log (the
// coroutine engine's free-event interleaving has no counterpart here, and
// traced cells fall back to pooled sessions in the harness).
//
// A LaneEngine is not safe for concurrent use.
type LaneEngine struct {
	cfg      Config
	power    sched.Power
	maxSteps int
	procs    []laneProc

	// image is the register file's post-construction contents; Reset
	// restores it so trial k+1 sees exactly the memory trial k started from.
	image []value.Value

	// Per-trial RNG streams, reseeded in place by Reset with the shared
	// exec derivation (same streams a fresh run would build).
	root     xrand.Source
	schedSrc xrand.Source
	coinSrc  []xrand.Source
	probSrc  []xrand.Source

	// baseCrashAt is the dense flattening of cfg.CrashAfter (maxInt =
	// never); crashAt is the per-trial merge with the injector's
	// thresholds. stallAt/stepCrashAt are valid only while faulty.
	baseCrashAt []int
	crashAt     []int
	stallAt     []int
	stepCrashAt []int

	inj      *fault.Injector
	faulty   bool
	needCtx  bool
	stalledN int

	result     *Result
	stalledBuf []bool
	steps      int

	meter *obs.Meter

	ctx     context.Context
	ctxDone <-chan struct{}

	// Scheduler view state, maintained incrementally exactly as in Engine.
	view       sched.View
	runnable   []int
	seesMemory bool
	collectBuf []value.Value

	armed    bool
	poisoned bool
	closed   bool
}

// NewLaneEngine validates cfg, broadcasts lane programs (1 or N), snapshots
// the register file's initial image, and constructs the per-process state
// machines. cfg.Seed, cfg.Faults, and cfg.Context are ignored (per-trial;
// see Reset and Run). cfg.Trace must be nil.
func NewLaneEngine(cfg Config, programs ...LaneProgram) (*LaneEngine, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: N=%d must be positive", cfg.N)
	}
	if cfg.File == nil {
		return nil, errors.New("sim: nil register file")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler")
	}
	if cfg.Trace != nil {
		return nil, errors.New("sim: lane engines are traceless (use Engine for traced cells)")
	}
	if cfg.Registers != register.Atomic {
		// Lanes are pinned bit-identical to the coroutine engine by the
		// differential suite, which covers only the atomic model so far; the
		// harness routes non-atomic cells to pooled Engine sessions instead.
		return nil, fmt.Errorf("sim: lane engines support only atomic registers (got %v; use Engine for %v cells)", cfg.Registers, cfg.Registers)
	}
	switch len(programs) {
	case cfg.N:
		ps := make([]LaneProgram, cfg.N)
		copy(ps, programs)
		programs = ps
	case 1:
		one := programs[0]
		programs = make([]LaneProgram, cfg.N)
		for i := range programs {
			programs[i] = one
		}
	default:
		return nil, fmt.Errorf("sim: got %d lane programs for %d processes", len(programs), cfg.N)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	eng := &LaneEngine{
		cfg:         cfg,
		power:       cfg.Scheduler.MinPower(),
		maxSteps:    maxSteps,
		procs:       make([]laneProc, cfg.N),
		image:       cfg.File.Contents(),
		coinSrc:     make([]xrand.Source, cfg.N),
		probSrc:     make([]xrand.Source, cfg.N),
		baseCrashAt: make([]int, cfg.N),
		crashAt:     make([]int, cfg.N),
		stallAt:     make([]int, cfg.N),
		stepCrashAt: make([]int, cfg.N),
		result:      exec.NewResult(cfg.N),
		stalledBuf:  make([]bool, cfg.N),
		meter:       cfg.Meter,
		runnable:    make([]int, 0, cfg.N),
		seesMemory:  viewsMemory(cfg.Scheduler.MinPower()),
	}
	eng.view = sched.View{Power: eng.power, N: cfg.N, Pending: make([]sched.Op, cfg.N), Changed: -1, ChangedFrom: value.None}
	for pid := range eng.baseCrashAt {
		eng.baseCrashAt[pid] = maxInt
	}
	for pid, limit := range cfg.CrashAfter {
		if pid >= 0 && pid < cfg.N {
			eng.baseCrashAt[pid] = limit
		}
	}
	for pid := 0; pid < cfg.N; pid++ {
		p := &eng.procs[pid]
		p.lp = programs[pid](pid, cfg.N)
		p.env = LaneEnv{
			pid:   pid,
			n:     cfg.N,
			cheap: cfg.CheapCollect,
			coins: &eng.coinSrc[pid],
		}
	}
	return eng, nil
}

// Reset rewinds the engine to run one trial with the given seed and compiled
// fault injector (nil for a fault-free trial): it restores the register
// image, rewinds the injector's and the engine's RNG streams, re-seeds the
// scheduler, resets every state machine, and zeroes the result — the same
// sequence Engine.Reset performs, minus the coroutine unwinding a state
// machine does not need.
func (eng *LaneEngine) Reset(seed uint64, faults *fault.Injector) error {
	if eng.closed {
		return errors.New("sim: Reset on closed lane engine")
	}
	if eng.poisoned {
		return exec.ErrSessionPoisoned
	}
	// Restore the shared registers to their post-construction image.
	if err := eng.cfg.File.Restore(eng.image); err != nil {
		eng.poisoned = true
		return fmt.Errorf("sim: %v: %w", err, exec.ErrSessionPoisoned)
	}
	// Install and rewind the fault plane. Thresholds are seed-independent;
	// only the delay/lost-coin streams depend on the seed.
	eng.inj = faults
	eng.faulty = faults != nil
	eng.needCtx = faults.HasStall()
	faults.Reseed(seed)
	copy(eng.crashAt, eng.baseCrashAt)
	if eng.faulty {
		for pid := 0; pid < eng.cfg.N; pid++ {
			eng.crashAt[pid] = min(eng.crashAt[pid], faults.CrashAt(pid))
			eng.stallAt[pid] = faults.StallAt(pid)
			eng.stepCrashAt[pid] = faults.CrashStep(pid)
		}
	}
	// Rewind every RNG stream in place — bit-identical to the streams a
	// fresh run (or Engine.Reset) derives for the same seed.
	eng.root.Reseed(seed)
	eng.root.SplitInto(&eng.schedSrc, 0)
	eng.cfg.Scheduler.Seed(&eng.schedSrc)
	for pid := 0; pid < eng.cfg.N; pid++ {
		exec.ProcCoinsInto(&eng.coinSrc[pid], &eng.root, pid)
		exec.ProcProbInto(&eng.probSrc[pid], &eng.root, pid)
	}
	// Clear per-trial process, result, and view state.
	for pid := range eng.procs {
		p := &eng.procs[pid]
		p.pending = LaneOp{}
		p.hasOp = false
		p.halted = false
		p.crashed = false
		p.stalled = false
		p.env.RVal = value.None
		p.env.ROK = false
		p.env.RVals = nil
		p.env.Op = LaneOp{}
		p.env.Out = value.None
		p.lp.Reset()
	}
	res := eng.result
	for pid := range res.Outputs {
		res.Outputs[pid] = value.None
		res.Halted[pid] = false
		res.Crashed[pid] = false
		res.Work[pid] = 0
	}
	res.TotalWork = 0
	res.Steps = 0
	// Stalled stays nil for stall-free trials so results marshal identically
	// to Engine results (the slice is engine-owned and merely re-zeroed when
	// stall faults are in play).
	res.Stalled = nil
	if eng.needCtx {
		for i := range eng.stalledBuf {
			eng.stalledBuf[i] = false
		}
		res.Stalled = eng.stalledBuf
	}
	eng.steps = 0
	eng.stalledN = 0
	for i := range eng.view.Pending {
		eng.view.Pending[i] = sched.Op{}
	}
	eng.view.Step = 0
	eng.view.Memory = nil
	eng.view.Changed, eng.view.ChangedFrom = -1, value.None
	eng.runnable = eng.runnable[:0]
	eng.armed = true
	return nil
}

// Run executes the trial armed by the last Reset and returns the
// engine-owned result: its slices are invalidated by the next Reset, so
// callers that retain anything across trials must deep-copy first. ctx, if
// non-nil, cancels the execution between scheduled operations; trials whose
// injector contains stall faults require one. Each Reset arms exactly one
// Run.
func (eng *LaneEngine) Run(ctx context.Context) (*Result, error) {
	if eng.closed {
		return nil, errors.New("sim: Run on closed lane engine")
	}
	if eng.poisoned {
		return nil, exec.ErrSessionPoisoned
	}
	if !eng.armed {
		return nil, errors.New("sim: Run before Reset (arm each trial with Reset(seed, faults))")
	}
	eng.armed = false
	if eng.needCtx && ctx == nil {
		return nil, errors.New("sim: stall faults require a Context (a stalled process never halts; only cancellation ends the execution)")
	}
	eng.ctx = ctx
	eng.ctxDone = nil
	if ctx != nil {
		eng.ctxDone = ctx.Done()
	}
	// A panic anywhere below — a program panic, a scheduler contract
	// violation — escapes with engine state unknown; flag pessimistically
	// and clear on the normal return path.
	eng.poisoned = true
	// Gather the initial pending operation (or immediate halt) of each
	// process, in pid order. Threshold 0 fires before the first operation:
	// the process crashes or stalls having done nothing at all, and its
	// state machine is not stepped this trial.
	for pid := range eng.procs {
		if eng.crashAt[pid] <= 0 {
			eng.crash(pid)
			continue
		}
		if eng.faulty && eng.stallAt[pid] <= 0 {
			eng.stall(pid)
			continue
		}
		eng.resume(pid)
	}
	for pid := range eng.procs {
		p := &eng.procs[pid]
		if p.hasOp && !p.crashed && !p.halted {
			eng.runnable = append(eng.runnable, pid)
			eng.view.Pending[pid] = eng.restrictOp(p.pending)
		}
	}
	err := eng.loop()
	eng.result.Steps = eng.steps
	eng.poisoned = false
	return eng.result, err
}

// RunLane runs one trial per seed, in order, on the reused engine: the
// lane-native bulk form of the Reset/Run pair, and what the sim backend's
// batch sessions are built on. emit receives each trial's engine-owned
// result (invalidated by the next trial) and returns false to stop the lane
// early. RunLane returns an error only when the engine itself can no longer
// run trials (closed or poisoned); per-trial errors arrive through emit.
func (eng *LaneEngine) RunLane(ctx context.Context, seeds []uint64, faults *fault.Injector, emit func(k int, res *Result, err error) bool) error {
	for k, seed := range seeds {
		if err := eng.Reset(seed, faults); err != nil {
			return err
		}
		res, err := eng.Run(ctx)
		if !emit(k, res, err) {
			return nil
		}
	}
	return nil
}

// Close retires the engine. With no coroutines to unwind this only marks
// the engine closed; it exists for symmetry with Engine.Close and must be
// called exactly once per engine (later calls are no-ops).
func (eng *LaneEngine) Close() error {
	eng.closed = true
	return nil
}

// loop drives the armed trial to completion or to the step limit. It is
// Engine.loop verbatim over op-coded processes.
func (rt *LaneEngine) loop() error {
	for {
		if len(rt.runnable) == 0 {
			if rt.stalledN == 0 {
				return nil // every process halted or crashed
			}
			// Only stalled processes remain: block until cancellation, as in
			// Engine.loop. Run validated that a context exists whenever stall
			// faults do.
			if rt.ctxDone == nil {
				return fmt.Errorf("sim: %d process(es) stalled with no context to interrupt the execution", rt.stalledN)
			}
			<-rt.ctxDone
			return fmt.Errorf("%w after %d steps (%d process(es) stalled): %w", ErrCancelled, rt.steps, rt.stalledN, context.Cause(rt.ctx))
		}
		if rt.steps >= rt.maxSteps {
			return fmt.Errorf("%w (limit %d, scheduler %q)", ErrStepLimit, rt.maxSteps, rt.cfg.Scheduler.Name())
		}
		if rt.ctxDone != nil {
			select {
			case <-rt.ctxDone:
				return fmt.Errorf("%w after %d steps: %w", ErrCancelled, rt.steps, context.Cause(rt.ctx))
			default:
			}
		}
		rt.view.Step = rt.steps
		rt.view.Runnable = rt.runnable
		if rt.seesMemory {
			rt.view.Memory = rt.cfg.File.Cells()
		}
		pid := rt.cfg.Scheduler.Next(&rt.view)
		rt.view.Changed, rt.view.ChangedFrom = -1, value.None
		if pid < 0 || pid >= rt.cfg.N || !rt.procs[pid].hasOp || rt.procs[pid].crashed {
			panic(fmt.Sprintf("sim: scheduler %q chose non-runnable pid %d", rt.cfg.Scheduler.Name(), pid))
		}
		rt.execute(pid)
		// Patch the view entry of the one process that moved.
		p := &rt.procs[pid]
		if p.hasOp && !p.crashed && !p.halted {
			rt.view.Pending[pid] = rt.restrictOp(p.pending)
		} else {
			rt.view.Pending[pid] = sched.Op{}
			rt.dropRunnable(pid)
		}
	}
}

// dropRunnable removes pid from the ascending runnable list (called only
// when a process halts or crashes, so the O(n) shift is off the per-step
// path).
func (rt *LaneEngine) dropRunnable(pid int) {
	for i, p := range rt.runnable {
		if p == pid {
			rt.runnable = append(rt.runnable[:i], rt.runnable[i+1:]...)
			return
		}
	}
}

// store is Engine.store: it writes v to r and, for the powers that see
// memory, reports a real change in the next view's Changed/ChangedFrom.
func (rt *LaneEngine) store(r register.Reg, v value.Value) {
	file := rt.cfg.File
	if rt.seesMemory {
		if old := file.Load(r); old != v {
			rt.view.Changed, rt.view.ChangedFrom = r, old
		}
	}
	file.Store(r, v)
}

// execute applies pid's pending operation, then steps pid's state machine to
// obtain its next operation (unless pid crashes at this step). It mirrors
// Engine.execute exactly — same op semantics, same RNG draws, same fault
// checks in the same order — minus the trace branch lanes never take.
func (rt *LaneEngine) execute(pid int) {
	p := &rt.procs[pid]
	req := p.pending
	p.hasOp = false
	file := rt.cfg.File

	switch req.Kind {
	case sched.OpRead:
		p.env.RVal = file.Load(req.Reg)
	case sched.OpWrite:
		rt.store(req.Reg, req.Val)
	case sched.OpProbWrite:
		ok := rt.probSrc[pid].Bernoulli(req.Num, req.Den)
		if rt.faulty && rt.inj.LoseCoin(pid) {
			// The coin is lost in flight: the process's own coin stream was
			// consumed exactly as in a fault-free run, but the write is
			// suppressed and reported failed (see Engine.execute).
			ok = false
		}
		if ok {
			rt.store(req.Reg, req.Val)
		}
		p.env.ROK = ok
	case sched.OpCollect:
		rt.collectBuf = file.SnapshotAppend(rt.collectBuf[:0], req.Arr)
		p.env.RVals = rt.collectBuf
	default:
		panic(fmt.Sprintf("sim: unknown op kind %v", req.Kind))
	}
	rt.result.Work[pid]++
	rt.result.TotalWork++
	rt.steps++
	if rt.meter != nil {
		rt.meter.AddSteps(1)
	}

	if rt.faulty {
		if d := rt.inj.OpDelay(pid); d > 0 {
			time.Sleep(d)
		}
	}

	// Crash checks run after the operation lands, exactly as in
	// Engine.execute: the last operation takes effect, but the process never
	// observes the result and is never stepped again this trial.
	if rt.result.Work[pid] >= rt.crashAt[pid] || (rt.faulty && rt.steps >= rt.stepCrashAt[pid]) {
		rt.crash(pid)
		return
	}
	if rt.faulty && rt.result.Work[pid] >= rt.stallAt[pid] {
		rt.stall(pid)
		return
	}

	rt.resume(pid)
}

// crash marks pid crashed, either after its last operation landed or before
// its first (threshold 0).
func (rt *LaneEngine) crash(pid int) {
	rt.procs[pid].crashed = true
	rt.result.Crashed[pid] = true
}

// stall freezes pid: not halted, not crashed — it holds its state forever
// and never takes another step (see Engine.stall).
func (rt *LaneEngine) stall(pid int) {
	rt.procs[pid].stalled = true
	rt.result.Stalled[pid] = true
	rt.stalledN++
}

// resume steps pid's state machine and records what comes back: the next
// pending operation (a true return, published in the env's Op slot) or the
// process's halt with its decision value (a false return). This is the whole
// replacement for the coroutine switch — one interface call, no stack
// transfer.
func (rt *LaneEngine) resume(pid int) {
	p := &rt.procs[pid]
	if p.lp.Step(&p.env) {
		p.pending = p.env.Op
		p.hasOp = true
		return
	}
	p.halted = true
	rt.result.Halted[pid] = true
	rt.result.Outputs[pid] = p.env.Out
}

// restrictOp projects a pending operation down to what rt.power permits the
// adversary to observe — Engine.restrictOp over LaneOp. The two must stay in
// lockstep; the differential tests cover every power to pin that.
func (rt *LaneEngine) restrictOp(req LaneOp) sched.Op {
	op := sched.Op{Valid: true, Reg: -1, Val: value.None}
	switch rt.power {
	case sched.Oblivious:
		// Liveness only.
	case sched.ValueOblivious:
		op.Kind = req.Kind
		op.Reg = req.Reg
		if req.Kind == sched.OpCollect {
			op.Reg = req.Arr.Base
		}
	case sched.LocationOblivious:
		op.Kind = req.Kind
		if req.Kind == sched.OpWrite || req.Kind == sched.OpProbWrite {
			op.Val = req.Val
		}
		op.ProbNum, op.ProbDen = req.Num, req.Den
	case sched.Adaptive:
		op.Kind = req.Kind
		op.Reg = req.Reg
		if req.Kind == sched.OpCollect {
			op.Reg = req.Arr.Base
		}
		if req.Kind == sched.OpWrite || req.Kind == sched.OpProbWrite {
			op.Val = req.Val
		}
		op.ProbNum, op.ProbDen = req.Num, req.Den
	default:
		panic(fmt.Sprintf("sim: unknown power %v", rt.power))
	}
	return op
}
