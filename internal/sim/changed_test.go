package sim

// Tests of View.Changed/ChangedFrom: the one-cell change report that lets a
// memory-seeing adversary track history in O(change) per step. The report
// must say exactly what an adversary would learn by diffing View.Memory
// against its own copy from the previous Next, under every register model,
// fault plan, and power class.

import (
	"fmt"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// changeChecker is a uniform-random scheduler at a declared power that
// copies Memory on every Next and asserts Changed/ChangedFrom equal the diff
// against the previous copy (and stay -1/⊥ below location-oblivious).
type changeChecker struct {
	power sched.Power
	inner *sched.UniformRandom
	t     *testing.T

	prev     []value.Value
	havePrev bool
	// Adaptive views only: whether the op scheduled last time was a
	// same-value write or a probabilistic write.
	lastSame, lastProb bool

	changes, quiet      int // views reporting a change / no change
	sameValue, probMiss int // same-value writes / prob-writes that changed nothing
}

func (c *changeChecker) Next(v *sched.View) int {
	if !viewsMemory(c.power) {
		if v.Changed != -1 || v.ChangedFrom != value.None {
			c.t.Errorf("%v view reports a change: Changed=%d ChangedFrom=%d", c.power, v.Changed, v.ChangedFrom)
		}
		return c.inner.Next(v)
	}
	want, wantFrom := register.Reg(-1), value.None
	if c.havePrev {
		for i, m := range v.Memory {
			if m == c.prev[i] {
				continue
			}
			if want >= 0 {
				c.t.Fatalf("step %d: cells %d and %d both changed in one step", v.Step, want, i)
			}
			want, wantFrom = register.Reg(i), c.prev[i]
		}
	}
	if v.Changed != want || v.ChangedFrom != wantFrom {
		c.t.Errorf("step %d: view reports Changed=%d ChangedFrom=%d, diff of Memory gives %d from %d",
			v.Step, v.Changed, v.ChangedFrom, want, wantFrom)
	}
	if want >= 0 {
		c.changes++
	} else {
		c.quiet++
		if c.lastSame {
			c.sameValue++
		}
		if c.lastProb {
			c.probMiss++
		}
	}
	c.prev = append(c.prev[:0], v.Memory...)
	c.havePrev = true

	pid := c.inner.Next(v)
	op := v.Pending[pid]
	c.lastSame = c.power == sched.Adaptive && op.Kind == sched.OpWrite && !op.Val.IsNone() && v.Memory[op.Reg] == op.Val
	c.lastProb = c.power == sched.Adaptive && op.Kind == sched.OpProbWrite
	return pid
}

func (c *changeChecker) Seed(src *xrand.Source) {
	c.inner.Seed(src)
	c.havePrev, c.lastSame, c.lastProb = false, false, false
}
func (c *changeChecker) Name() string          { return "change-checker-" + c.power.String() }
func (c *changeChecker) MinPower() sched.Power { return c.power }

// churnIters is the per-process iteration count of the churn workload.
const churnIters = 12

// closureChurnWorkload: four processes share two registers and write values
// from a three-value domain, so same-value writes are common; each
// iteration is write, prob-write (misses half the time), read of the other
// register.
func closureChurnWorkload(n int, s sched.Scheduler) (exec.Config, exec.Program) {
	f := register.NewFile()
	a := f.Alloc(2, "churn")
	prog := func(e core.Env) value.Value {
		mine, other := a.At(e.PID()%2), a.At((e.PID()+1)%2)
		acc := value.Value(0)
		for i := 0; i < churnIters; i++ {
			v := value.Value(e.CoinIntn(3))
			e.Write(mine, v)
			if e.ProbWrite(mine, v+1, 1, 2) {
				acc++
			}
			if e.Read(other) == v {
				acc++
			}
		}
		return acc
	}
	return exec.Config{N: n, File: f, Scheduler: s, MaxSteps: 1 << 20}, prog
}

// closureCoinWorkload: local coins decide values and whether to probwrite,
// then the process collects the whole array, cheap (one OpCollect) or
// per-call (arr.Len individual reads), matching Env.Collect's two cost
// models.
func closureCoinWorkload(n int, cheap bool, s sched.Scheduler) (exec.Config, exec.Program) {
	f := register.NewFile()
	a := f.Alloc(n, "coin")
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

func TestChangedMatchesMemoryDiff(t *testing.T) {
	const n = 4
	powers := []sched.Power{sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive}
	models := []register.Semantics{register.Atomic, register.Regular, register.Interposed}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"nofault", nil},
		// pid 0's 4th operation is a write: it lands, then pid 0 crashes.
		{"crash+losecoin", fault.New(fault.Crash(0, 4), fault.LoseCoin(1, 1, 2))},
	}
	seeds := []uint64{1, 2, 3, 4}
	type workload struct {
		name    string
		closure func(n int, s sched.Scheduler) (exec.Config, exec.Program)
	}
	workloads := []workload{
		{"churn", closureChurnWorkload},
		{
			"coins-cheap",
			func(n int, s sched.Scheduler) (exec.Config, exec.Program) { return closureCoinWorkload(n, true, s) },
		},
	}
	for _, w := range workloads {
		for _, power := range powers {
			for _, model := range models {
				for _, pl := range plans {
					name := fmt.Sprintf("%s/%s/%s/%s", w.name, power, model, pl.name)
					t.Run(name+"/engine", func(t *testing.T) {
						c := &changeChecker{power: power, inner: sched.NewUniformRandom(), t: t}
						cfg, prog := w.closure(n, c)
						cfg.Registers, cfg.Faults = model, pl.plan
						sess, err := Backend().NewSession(cfg, prog)
						if err != nil {
							t.Fatal(err)
						}
						defer sess.Close()
						crashed := false
						for _, seed := range seeds {
							res, err := sess.Run(nil, seed)
							if err != nil {
								t.Fatalf("seed %d: %v", seed, err)
							}
							crashed = crashed || res.Crashed[0]
						}
						checkCoverage(t, c, w.name, model, pl.plan != nil, crashed)
					})
				}
			}
		}
	}
}

// checkCoverage asserts the run exercised what the diff check is meant to
// cover: changes and quiet steps on memory-seeing views, same-value writes
// and missed prob-writes where the adaptive view can recognize them (not
// under interposed registers, which hide pending write values), and the
// planned crash.
func checkCoverage(t *testing.T, c *changeChecker, workload string, model register.Semantics, faulty, crashed bool) {
	t.Helper()
	if faulty && !crashed {
		t.Error("crash plan never crashed pid 0")
	}
	if !viewsMemory(c.power) {
		return
	}
	if c.changes == 0 || c.quiet == 0 {
		t.Errorf("%d changing and %d quiet steps, want both", c.changes, c.quiet)
	}
	if c.power == sched.Adaptive && workload == "churn" && model != register.Interposed && (c.sameValue == 0 || c.probMiss == 0) {
		t.Errorf("%d same-value writes and %d prob-writes that changed nothing, want both", c.sameValue, c.probMiss)
	}
}
