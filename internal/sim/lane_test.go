package sim

// Differential tests for the op-coded lane engine: a LaneProc twin of a
// closure workload must produce bit-identical results to the coroutine
// engine across seeds × adversary powers × process counts × fault plans,
// batched lanes must stay allocation-free after warmup, and
// BenchmarkTrialLane quantifies what removing the coroutine switch buys
// over BenchmarkTrialReuse's pooled sessions.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// powerUR is a uniform-random scheduler that declares an arbitrary MinPower,
// so the differential matrix exercises every view-restriction path (and the
// memory-image path for location-oblivious/adaptive) with a seed-dependent
// schedule.
type powerUR struct {
	power sched.Power
	inner *sched.UniformRandom
}

func (s *powerUR) Next(v *sched.View) int { return s.inner.Next(v) }
func (s *powerUR) Seed(src *xrand.Source) { s.inner.Seed(src) }
func (s *powerUR) Name() string           { return "lane-diff-" + s.power.String() }
func (s *powerUR) MinPower() sched.Power  { return s.power }

// seqProc is the op-coded twin of sessionWorkload's closure: the same
// 64-iteration write/probwrite/read loop with the suspension points turned
// into explicit states.
type seqProc struct {
	r   register.Reg
	i   int
	pc  int
	acc value.Value
}

func (p *seqProc) Reset() { p.i, p.pc, p.acc = 0, 0, 0 }

func (p *seqProc) Step(e *LaneEnv) bool {
	// Consume the response of the operation published last time.
	switch p.pc {
	case 2:
		if e.ROK {
			p.acc++
		}
	case 3:
		p.acc += e.RVal % 3
		p.i++
		if p.i >= 64 {
			e.Out = p.acc
			return false
		}
	}
	// Publish the next operation.
	switch p.pc {
	case 0, 3:
		e.Op = LaneOp{Kind: sched.OpWrite, Reg: p.r, Val: value.Value(p.i)}
		p.pc = 1
	case 1:
		e.Op = LaneOp{Kind: sched.OpProbWrite, Reg: p.r, Val: value.Value(p.i) + 100, Num: 1, Den: 2}
		p.pc = 2
	case 2:
		e.Op = LaneOp{Kind: sched.OpRead, Reg: p.r}
		p.pc = 3
	}
	return true
}

// laneSeqWorkload builds the lane form of sessionWorkload over its own
// register file (the engine mutates the file, so twins never share one).
func laneSeqWorkload(n int, s sched.Scheduler) (exec.Config, LaneProgram) {
	f := register.NewFile()
	a := f.Alloc(n, "session-test")
	prog := func(pid, n int) LaneProc {
		return &seqProc{r: a.At(pid % a.Len)}
	}
	return exec.Config{N: n, File: f, Scheduler: s, MaxSteps: 1 << 20}, prog
}

// closureSeqWorkload is sessionWorkload with an injectable scheduler, so the
// differential matrix can pin every power.
func closureSeqWorkload(n int, s sched.Scheduler) (exec.Config, exec.Program) {
	cfg, prog := sessionWorkload(n)
	cfg.Scheduler = s
	return cfg, func(e core.Env) value.Value { return prog(e) }
}

// The coin/collect workload pair: local coins decide values and whether to
// probwrite, then the process collects the whole array — cheap (one
// OpCollect) or per-call (arr.Len individual reads), matching Env.Collect's
// two cost models.

func closureCoinWorkload(n int, cheap bool, s sched.Scheduler) (exec.Config, exec.Program) {
	f := register.NewFile()
	a := f.Alloc(n, "lane-coin")
	prog := func(e core.Env) value.Value {
		mine := a.At(e.PID())
		acc := value.Value(0)
		for i := 0; i < 8; i++ {
			v := value.Value(e.CoinIntn(10))
			e.Write(mine, v)
			if e.CoinBool() {
				if e.ProbWrite(mine, v+1, 2, 3) {
					acc += 2
				}
			}
			for _, x := range e.Collect(a) {
				acc += x % 5
			}
		}
		return acc
	}
	return exec.Config{N: n, File: f, Scheduler: s, CheapCollect: cheap, MaxSteps: 1 << 20}, prog
}

type coinProc struct {
	mine register.Reg
	arr  register.Array
	i    int
	j    int
	pc   int
	acc  value.Value
	v    value.Value
}

func (p *coinProc) Reset() { p.i, p.j, p.pc, p.acc, p.v = 0, 0, 0, 0, 0 }

func (p *coinProc) Step(e *LaneEnv) bool {
	switch p.pc {
	case 0: // top of an iteration, nothing pending
		return p.startIter(e)
	case 1: // write landed
		if e.CoinBool() {
			e.Op = LaneOp{Kind: sched.OpProbWrite, Reg: p.mine, Val: p.v + 1, Num: 2, Den: 3}
			p.pc = 2
			return true
		}
		return p.startCollect(e)
	case 2: // probwrite landed
		if e.ROK {
			p.acc += 2
		}
		return p.startCollect(e)
	case 4: // cheap collect landed
		for _, x := range e.RVals {
			p.acc += x % 5
		}
		return p.endIter(e)
	case 5: // one per-call collect read landed
		p.acc += e.RVal % 5
		p.j++
		if p.j < p.arr.Len {
			e.Op = LaneOp{Kind: sched.OpRead, Reg: p.arr.At(p.j)}
			return true
		}
		return p.endIter(e)
	}
	panic("coinProc: invalid state")
}

func (p *coinProc) startIter(e *LaneEnv) bool {
	p.v = value.Value(e.CoinIntn(10))
	e.Op = LaneOp{Kind: sched.OpWrite, Reg: p.mine, Val: p.v}
	p.pc = 1
	return true
}

func (p *coinProc) startCollect(e *LaneEnv) bool {
	if e.CheapCollect() {
		e.Op = LaneOp{Kind: sched.OpCollect, Arr: p.arr}
		p.pc = 4
		return true
	}
	p.j = 0
	e.Op = LaneOp{Kind: sched.OpRead, Reg: p.arr.At(0)}
	p.pc = 5
	return true
}

func (p *coinProc) endIter(e *LaneEnv) bool {
	p.i++
	if p.i >= 8 {
		e.Out = p.acc
		return false
	}
	return p.startIter(e)
}

func laneCoinWorkload(n int, cheap bool, s sched.Scheduler) (exec.Config, LaneProgram) {
	f := register.NewFile()
	a := f.Alloc(n, "lane-coin")
	prog := func(pid, n int) LaneProc {
		return &coinProc{mine: a.At(pid), arr: a}
	}
	return exec.Config{N: n, File: f, Scheduler: s, CheapCollect: cheap, MaxSteps: 1 << 20}, prog
}

// TestLaneMatchesSessionDifferential is the bit-identity pin: for every
// workload pair, adversary power, process count, and fault plan, the
// op-coded lane session and the coroutine session produce exactly the same
// results for the same seeds. Stall plans are excluded — a stalled
// execution only ends by cancellation, so its step count is wall-clock
// dependent by design — but the remaining kinds cover every injector
// stream the engines consult (crash thresholds, lost-coin draws).
func TestLaneMatchesSessionDifferential(t *testing.T) {
	powers := []sched.Power{sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive}
	plans := map[string]*fault.Plan{
		"nofault":        nil,
		"crash+losecoin": fault.New(fault.Crash(0, 40), fault.LoseCoin(1, 1, 3)),
		"crash-at-birth": fault.New(fault.Crash(0, 0), fault.LoseCoin(1, 1, 2)),
	}
	seeds := []uint64{1, 7, 42}

	type pair struct {
		name    string
		ns      []int
		closure func(n int, s sched.Scheduler) (exec.Config, exec.Program)
		lane    func(n int, s sched.Scheduler) (exec.Config, LaneProgram)
	}
	pairs := []pair{
		{
			name: "seq", ns: []int{2, 16, 256},
			closure: closureSeqWorkload,
			lane:    laneSeqWorkload,
		},
		{
			name: "coins-cheap", ns: []int{2, 16, 256},
			closure: func(n int, s sched.Scheduler) (exec.Config, exec.Program) { return closureCoinWorkload(n, true, s) },
			lane:    func(n int, s sched.Scheduler) (exec.Config, LaneProgram) { return laneCoinWorkload(n, true, s) },
		},
		{
			// Per-call collects cost arr.Len reads each; keep n small so the
			// quadratic step count stays test-sized.
			name: "coins-percall", ns: []int{2, 16},
			closure: func(n int, s sched.Scheduler) (exec.Config, exec.Program) { return closureCoinWorkload(n, false, s) },
			lane:    func(n int, s sched.Scheduler) (exec.Config, LaneProgram) { return laneCoinWorkload(n, false, s) },
		},
	}

	for _, pr := range pairs {
		for _, n := range pr.ns {
			for _, power := range powers {
				t.Run(fmt.Sprintf("%s/n=%d/%s", pr.name, n, power), func(t *testing.T) {
					for planName, plan := range plans {
						cfgC, progC := pr.closure(n, &powerUR{power: power, inner: sched.NewUniformRandom()})
						cfgC.Faults = plan
						sess, err := Backend().NewSession(cfgC, progC)
						if err != nil {
							t.Fatal(err)
						}
						cfgL, progL := pr.lane(n, &powerUR{power: power, inner: sched.NewUniformRandom()})
						cfgL.Faults = plan
						lsess, err := NewLaneSession(cfgL, progL)
						if err != nil {
							t.Fatal(err)
						}
						for _, seed := range seeds {
							want, errC := sess.Run(nil, seed)
							got, errL := lsess.Run(nil, seed)
							if (errC == nil) != (errL == nil) {
								t.Fatalf("%s seed %d: closure err %v, lane err %v", planName, seed, errC, errL)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("%s seed %d: lane diverged from session:\n got %+v\nwant %+v", planName, seed, got, want)
							}
						}
						sess.Close()
						lsess.Close()
					}
				})
			}
		}
	}
}

// TestLaneBatchMatchesLoopedRuns pins the batch seam itself: RunBatch over a
// lane of seeds reports exactly what per-seed Run calls report, including
// repeated seeds.
func TestLaneBatchMatchesLoopedRuns(t *testing.T) {
	const n = 4
	cfgA, progA := laneSeqWorkload(n, sched.NewUniformRandom())
	batch, err := NewLaneSession(cfgA, progA)
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	cfgB, progB := laneSeqWorkload(n, sched.NewUniformRandom())
	loop, err := NewLaneSession(cfgB, progB)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()

	seeds := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	begun := 0
	err = batch.RunBatch(nil, seeds, func(k int) error {
		begun++
		if k != begun-1 {
			t.Fatalf("begin(%d) out of order (call %d)", k, begun)
		}
		return nil
	}, func(k int, res *exec.Result, err error) bool {
		if err != nil {
			t.Fatalf("seed %d: batch trial: %v", seeds[k], err)
		}
		want, err := loop.Run(nil, seeds[k])
		if err != nil {
			t.Fatalf("seed %d: looped trial: %v", seeds[k], err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("seed %d: batch trial diverged from looped Run:\n got %+v\nwant %+v", seeds[k], res, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if begun != len(seeds) {
		t.Fatalf("begin called %d times for %d seeds", begun, len(seeds))
	}
}

// TestLaneEngineRejectsTrace pins the traceless contract: lane executions
// have no coroutine free-event interleaving to record, so traced cells must
// fall back to the coroutine engine.
func TestLaneEngineRejectsTrace(t *testing.T) {
	cfg, prog := laneSeqWorkload(2, sched.NewUniformRandom())
	cfg.Trace = trace.New()
	if _, err := NewLaneSession(cfg, prog); err == nil {
		t.Fatal("NewLaneSession accepted a traced config")
	}
}

// TestLaneZeroAllocsAfterWarmup extends the PR 6 zero-allocation contract to
// lanes: after the first batch warms the session, a whole lane of trials —
// Reset plus Run per seed, batch dispatch included — allocates nothing.
func TestLaneZeroAllocsAfterWarmup(t *testing.T) {
	cfg, prog := laneSeqWorkload(4, sched.NewUniformRandom())
	sess, err := NewLaneSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var trialErr error
	emit := func(k int, res *exec.Result, err error) bool {
		if err != nil {
			trialErr = err
			return false
		}
		return true
	}
	seeds := make([]uint64, 8)
	seed := uint64(0)
	lane := func() {
		for i := range seeds {
			seed++
			seeds[i] = seed
		}
		if err := sess.RunBatch(nil, seeds, nil, emit); err != nil {
			trialErr = err
		}
	}
	lane() // warm up: lazy buffers settle
	if trialErr != nil {
		t.Fatal(trialErr)
	}
	if allocs := testing.AllocsPerRun(20, lane); allocs != 0 {
		t.Errorf("got %v allocs/lane after warmup, want 0", allocs)
	}
	if trialErr != nil {
		t.Fatal(trialErr)
	}
}

// TestLaneSpeedup is the regression tripwire for the lane engine's point:
// removing the coroutine round trip from every scheduled operation must keep
// lanes well ahead of pooled coroutine sessions. The recorded speedup
// (≈4.7×, see BENCH_sim.json's trial section) is measured by the benchmarks;
// this guard asserts a deliberately loose 2× so machine noise can't flake
// the suite.
func TestLaneSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison needs a long run")
	}
	const n = 8
	pooled := testing.Benchmark(func(b *testing.B) {
		cfg, prog := sessionWorkload(n)
		sess, err := Backend().NewSession(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Run(nil, uint64(i)+1); err != nil {
				b.Fatal(err)
			}
		}
	})
	lane := testing.Benchmark(func(b *testing.B) {
		cfg, prog := laneSeqWorkload(n, sched.NewUniformRandom())
		sess, err := NewLaneSession(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		seeds := make([]uint64, 64)
		var trialErr error
		emit := func(k int, res *exec.Result, err error) bool {
			trialErr = err
			return err == nil
		}
		b.ResetTimer()
		done := 0
		for done < b.N {
			k := len(seeds)
			if b.N-done < k {
				k = b.N - done
			}
			for j := 0; j < k; j++ {
				seeds[j] = uint64(done+j) + 1
			}
			if err := sess.RunBatch(nil, seeds[:k], nil, emit); err != nil {
				b.Fatal(err)
			}
			if trialErr != nil {
				b.Fatal(trialErr)
			}
			done += k
		}
	})
	ratio := float64(pooled.NsPerOp()) / float64(lane.NsPerOp())
	t.Logf("n=%d: pooled %d ns/trial, lane %d ns/trial, speedup %.2fx",
		n, pooled.NsPerOp(), lane.NsPerOp(), ratio)
	if ratio < 2 {
		t.Errorf("lane only %.2fx faster than pooled sessions, want ≥2x (≈4.7x expected)", ratio)
	}
}

// BenchmarkTrialLane is the lane half of the throughput claim: the same
// workload BenchmarkTrialReuse runs on pooled coroutine sessions, executed
// as op-coded lanes of 64 trials. Compare lane/n=K here against pooled/n=K
// there; the lane path must be ≥ 2× trials/sec (the coroutine round trip it
// removes is about half the cost of a step).
func BenchmarkTrialLane(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("lane/n=%d", n), func(b *testing.B) {
			cfg, prog := laneSeqWorkload(n, sched.NewUniformRandom())
			sess, err := NewLaneSession(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			seeds := make([]uint64, 64)
			var trialErr error
			emit := func(k int, res *exec.Result, err error) bool {
				trialErr = err
				return err == nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				k := len(seeds)
				if b.N-done < k {
					k = b.N - done
				}
				for j := 0; j < k; j++ {
					seeds[j] = uint64(done+j) + 1
				}
				if err := sess.RunBatch(nil, seeds[:k], nil, emit); err != nil {
					b.Fatal(err)
				}
				if trialErr != nil {
					b.Fatal(trialErr)
				}
				done += k
			}
		})
	}
}
