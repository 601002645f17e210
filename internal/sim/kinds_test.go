package sim

// Tests of View.Kinds: the per-kind runnable sets the engine patches on
// every step must equal a recomputation from Runnable and Pending at every
// Next, under every power class, register model and fault plan, and across
// a SetScheduler that changes the power between trials.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// kindChecker is a uniform-random scheduler at a declared power that
// rebuilds the kind sets from Runnable and Pending at every Next and fails
// the test where the engine's sets differ. It also checks the power
// restriction: an oblivious view files every runnable pid under kind 0,
// a stronger one none.
type kindChecker struct {
	power sched.Power
	inner *sched.UniformRandom
	t     *testing.T

	want  sched.View // scratch view the sets are recomputed in
	views int
	seen  [len(sched.View{}.Kinds)]bool // kinds found non-empty at some step
}

func (c *kindChecker) Next(v *sched.View) int {
	c.views++
	c.want.N, c.want.Runnable, c.want.Pending = v.N, v.Runnable, v.Pending
	c.want.IndexKinds()
	for k := range v.Kinds {
		got, want := &v.Kinds[k], &c.want.Kinds[k]
		if got.Count != want.Count || !slices.Equal(got.Words, want.Words) {
			c.t.Fatalf("%v view, step %d: Kinds[%v] = %b (count %d), Pending gives %b (count %d)",
				c.power, v.Step, sched.OpKind(k), got.Words, got.Count, want.Words, want.Count)
		}
		pop := 0
		for _, w := range got.Words {
			pop += bits.OnesCount64(w)
		}
		if pop != got.Count {
			c.t.Fatalf("%v view, step %d: Kinds[%v] holds %d pids, counts %d", c.power, v.Step, sched.OpKind(k), pop, got.Count)
		}
		c.seen[k] = c.seen[k] || got.Count > 0
	}
	hidden := v.Kinds[0].Count
	if c.power == sched.Oblivious && hidden != len(v.Runnable) || c.power != sched.Oblivious && hidden != 0 {
		c.t.Fatalf("%v view, step %d: %d of %d runnable pids filed under the hidden kind", c.power, v.Step, hidden, len(v.Runnable))
	}
	return c.inner.Next(v)
}

func (c *kindChecker) Seed(src *xrand.Source) { c.inner.Seed(src) }
func (c *kindChecker) Name() string           { return "kind-checker-" + c.power.String() }
func (c *kindChecker) MinPower() sched.Power  { return c.power }

// checkKindCoverage asserts the checked views filed pids under every kind
// the workload issues and the power may see: only the hidden kind when
// oblivious, exactly the issued kinds otherwise.
func checkKindCoverage(t *testing.T, c *kindChecker, issued ...sched.OpKind) {
	t.Helper()
	if c.views == 0 {
		t.Fatal("no view was checked")
	}
	for k, seen := range c.seen {
		want := k == 0
		if c.power != sched.Oblivious {
			want = slices.Contains(issued, sched.OpKind(k))
		}
		if seen != want {
			t.Errorf("%v views: kind %v non-empty at some step = %v, want %v", c.power, sched.OpKind(k), seen, want)
		}
	}
}

func TestKindSetsMatchPending(t *testing.T) {
	powers := []sched.Power{sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive}
	models := []register.Semantics{register.Atomic, register.Regular, register.Interposed}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"nofault", nil},
		{"crash", fault.New(fault.Crash(0, 4), fault.Crash(3, 9))},
		// pid 1 crashes before its first operation: it never enters a set.
		{"crash-at-0", fault.New(fault.Crash(1, 0))},
		// pid 2 stalls after its third operation and leaves the sets; the
		// trial then ends by cancellation.
		{"stall", fault.New(fault.Stall(2, 3))},
		{"losecoin", fault.New(fault.LoseCoin(0, 1, 2), fault.LoseCoin(2, 1, 1))},
	}
	const n = 4
	// churn has reads, writes and prob-writes; coins has collects.
	workloads := []func(n int, s sched.Scheduler) (exec.Config, exec.Program){
		closureChurnWorkload,
		func(n int, s sched.Scheduler) (exec.Config, exec.Program) { return closureCoinWorkload(n, true, s) },
	}
	for _, power := range powers {
		for _, model := range models {
			for _, pl := range plans {
				t.Run(fmt.Sprintf("%s/%s/%s", power, model, pl.name), func(t *testing.T) {
					c := &kindChecker{power: power, inner: sched.NewUniformRandom(), t: t}
					for _, w := range workloads {
						cfg, prog := w(n, c)
						cfg.Registers, cfg.Faults = model, pl.plan
						sess, err := Backend().NewSession(cfg, prog)
						if err != nil {
							t.Fatal(err)
						}
						for _, seed := range []uint64{1, 2} {
							ctx, cancel := context.Background(), context.CancelFunc(func() {})
							if pl.plan.HasStall() {
								ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
							}
							res, err := sess.Run(ctx, seed)
							cancel()
							if err != nil && !(pl.plan.HasStall() && errors.Is(err, ErrCancelled)) {
								t.Fatalf("seed %d: %v", seed, err)
							}
							checkPlanFired(t, pl.name, res)
						}
						sess.Close()
					}
					checkKindCoverage(t, c, sched.OpRead, sched.OpWrite, sched.OpProbWrite, sched.OpCollect)
				})
			}
		}
	}
}

// checkPlanFired asserts the fault the plan names happened.
func checkPlanFired(t *testing.T, plan string, res *exec.Result) {
	t.Helper()
	switch {
	case plan == "crash" && !res.Crashed[0],
		plan == "crash-at-0" && (!res.Crashed[1] || res.Work[1] != 0),
		plan == "stall" && (res.Stalled == nil || !res.Stalled[2]):
		t.Fatalf("plan %s did not fire: crashed %v, stalled %v, work %v", plan, res.Crashed, res.Stalled, res.Work)
	}
}

// TestKindSetsFollowSetScheduler moves one engine oblivious → adaptive →
// value-oblivious across trials: every trial's sets must be filed under the
// new power, whatever the previous trial left behind. A step limit cuts
// some trials short, so a trial can end with pids still in the sets.
func TestKindSetsFollowSetScheduler(t *testing.T) {
	const n = 4
	cfg, prog := closureChurnWorkload(n, sched.NewRoundRobin())
	eng, err := NewEngine(Config{N: n, File: cfg.File, Scheduler: cfg.Scheduler, MaxSteps: cfg.MaxSteps},
		func(e *Env) value.Value { return prog(e) })
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for trial, power := range []sched.Power{sched.Oblivious, sched.Adaptive, sched.ValueOblivious, sched.Oblivious, sched.LocationOblivious} {
		c := &kindChecker{power: power, inner: sched.NewUniformRandom(), t: t}
		if err := eng.SetScheduler(c); err != nil {
			t.Fatal(err)
		}
		eng.maxSteps = 40 + 300*(trial%2) // alternately cut short and run to completion
		if err := eng.Reset(uint64(trial), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(nil); err != nil && !errors.Is(err, ErrStepLimit) {
			t.Fatal(err)
		}
		checkKindCoverage(t, c, sched.OpRead, sched.OpWrite, sched.OpProbWrite)
	}
}
