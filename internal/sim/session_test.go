package sim

// Tests and benchmarks for the resettable Engine behind the sim backend's
// sessions: trial reuse must be invisible (bit-identical to fresh engines),
// free (0 allocs/trial after warmup), and measurably cheaper than
// constructing an engine per trial (BenchmarkTrialReuse is the number the
// pooled harness amortizes away).

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// sessionWorkload is a terminating per-process program plus its config: a
// short write/read/probwrite loop whose outputs and work depend on the
// seed-derived coin streams, so any state leaking between trials shows up
// in the comparison.
func sessionWorkload(n int) (exec.Config, exec.Program) {
	f := register.NewFile()
	a := f.Alloc(n, "session-test")
	prog := func(e core.Env) value.Value {
		r := a.At(e.PID() % a.Len)
		acc := value.Value(0)
		for i := 0; i < 64; i++ {
			e.Write(r, value.Value(i))
			if e.ProbWrite(r, value.Value(i)+100, 1, 2) {
				acc++
			}
			acc += e.Read(r) % 3
		}
		return acc
	}
	cfg := exec.Config{
		N: n, File: f,
		Scheduler: sched.NewUniformRandom(),
		MaxSteps:  1 << 20,
	}
	return cfg, prog
}

// TestSessionReuseMatchesFreshRuns pins the reuse contract: one session run
// across many seeds produces exactly the results of a fresh one-shot run
// per seed, in any seed order.
func TestSessionReuseMatchesFreshRuns(t *testing.T) {
	const n = 5
	cfg, prog := sessionWorkload(n)
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Interleave repeats so a trial also re-runs a seed the session saw
	// earlier — reuse must not remember it.
	seeds := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for _, seed := range seeds {
		got, err := sess.Run(nil, seed)
		if err != nil {
			t.Fatalf("seed %d: session run: %v", seed, err)
		}
		freshCfg, freshProg := sessionWorkload(n)
		freshCfg.Seed = seed
		want, err := Backend().Run(freshCfg, freshProg)
		if err != nil {
			t.Fatalf("seed %d: fresh run: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) ||
			!reflect.DeepEqual(got.Work, want.Work) ||
			got.TotalWork != want.TotalWork || got.Steps != want.Steps {
			t.Errorf("seed %d: reused session diverged from fresh run:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestEngineSetSchedulerMatchesFresh pins adversary rebinding: an engine
// built for one scheduler and rebound to another between trials runs each
// trial exactly as a fresh engine built for the new scheduler, across every
// pair of power classes (the rebind re-derives the view restriction and
// whether views carry memory). Rebinding an armed engine is refused.
func TestEngineSetSchedulerMatchesFresh(t *testing.T) {
	const n = 4
	advs := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewUniformRandom() },
		func() sched.Scheduler { return sched.NewSplitVote() },
		func() sched.Scheduler { return sched.NewFirstMoverAttack() },
		func() sched.Scheduler { return sched.NewAdaptiveSpoiler() },
	}
	cfg, prog := sessionWorkload(n)
	eng, err := NewEngine(Config{N: n, File: cfg.File, Scheduler: advs[0](), Trace: trace.New(), MaxSteps: cfg.MaxSteps},
		func(e *Env) value.Value { return prog(e) })
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for k := range 3 * len(advs) {
		adv, seed := advs[(k*3+1)%len(advs)], uint64(k)
		if err := eng.SetScheduler(adv()); err != nil {
			t.Fatal(err)
		}
		if err := eng.Reset(seed, nil); err != nil {
			t.Fatal(err)
		}
		if eng.SetScheduler(adv()) == nil {
			t.Fatal("SetScheduler on an armed engine succeeded")
		}
		got, err := eng.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		freshCfg, freshProg := sessionWorkload(n)
		want, err := Run(Config{N: n, File: freshCfg.File, Scheduler: adv(), Seed: seed, Trace: trace.New(), MaxSteps: freshCfg.MaxSteps},
			func(e *Env) value.Value { return freshProg(e) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.Work, want.Work) ||
			!reflect.DeepEqual(got.Trace.Events(), want.Trace.Events()) {
			t.Fatalf("call %d (%s): rebound engine diverged from a fresh one", k, adv().Name())
		}
	}
}

// TestTrialZeroAllocsAfterWarmup is the tentpole's per-trial half of the
// zero-allocation contract: after the first trial warms the session, a
// whole trial — Reset plus Run — allocates nothing.
func TestTrialZeroAllocsAfterWarmup(t *testing.T) {
	cfg, prog := sessionWorkload(4)
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	seed := uint64(0)
	trial := func() {
		seed++
		if _, err := sess.Run(nil, seed); err != nil {
			t.Fatal(err)
		}
	}
	trial() // warm up: coroutine stacks grow, lazy buffers settle
	if allocs := testing.AllocsPerRun(50, trial); allocs != 0 {
		t.Errorf("got %v allocs/trial after warmup, want 0", allocs)
	}
}

// TestSessionPoisonedAfterProgramPanic pins the pessimistic-poisoning
// contract: a program panic escapes Run, and every later Reset/Run on that
// engine reports exec.ErrSessionPoisoned instead of running on wreckage.
func TestSessionPoisonedAfterProgramPanic(t *testing.T) {
	cfg, _ := sessionWorkload(3)
	armed := false
	prog := func(e core.Env) value.Value {
		if armed && e.PID() == 1 {
			panic("session_test: injected program panic")
		}
		return value.Value(e.PID())
	}
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Run(nil, 1); err != nil {
		t.Fatalf("clean trial: %v", err)
	}
	armed = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("program panic did not escape Run")
			}
		}()
		sess.Run(nil, 2)
	}()
	if _, err := sess.Run(nil, 3); !errors.Is(err, exec.ErrSessionPoisoned) {
		t.Fatalf("run after panic: err = %v, want ErrSessionPoisoned", err)
	}
}

// BenchmarkTrialReuse quantifies what session pooling buys: "fresh" pays
// engine construction (registers snapshot, coroutine spawns, buffers, RNG
// state) on every trial, "pooled" pays it once and runs Reset+Run per
// trial. The delta is the per-trial overhead the pooled harness amortizes.
func BenchmarkTrialReuse(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("fresh/n=%d", n), func(b *testing.B) {
			cfg, prog := sessionWorkload(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess, err := Backend().NewSession(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Run(nil, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
				sess.Close()
			}
		})
		b.Run(fmt.Sprintf("pooled/n=%d", n), func(b *testing.B) {
			cfg, prog := sessionWorkload(n)
			sess, err := Backend().NewSession(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(nil, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
