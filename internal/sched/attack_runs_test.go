package sched_test

// The attacks on real protocol runs: step-for-step agreement with the scan
// oracles on NewBinary(8) and NewBinary(64), and the allocation pins of
// FirstMoverAttack (warm Next, and a fresh attack's first trial).

import (
	"fmt"
	"slices"
	"testing"

	"github.com/modular-consensus/modcon"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// lockstep runs an attack and its oracle on the same views and schedules
// the oracle's choice; mismatches are counted, not fatal, because Next runs
// inside the engine's step loop.
type lockstep struct {
	attack, oracle sched.Scheduler
	steps          int
	mismatch       string // the first disagreement, if any
}

func (l *lockstep) Next(v *sched.View) int {
	got, want := l.attack.Next(v), l.oracle.Next(v)
	if got != want && l.mismatch == "" {
		l.mismatch = fmt.Sprintf("step %d: attack chose %d, scan oracle %d", v.Step, got, want)
	}
	l.steps++
	return want
}

func (l *lockstep) Seed(src *xrand.Source) {
	l.attack.Seed(src)
	l.oracle.Seed(src)
}
func (l *lockstep) Name() string          { return "lockstep-" + l.attack.Name() }
func (l *lockstep) MinPower() sched.Power { return l.attack.MinPower() }

// mixedInputs returns n binary inputs with both values present.
func mixedInputs(n int, seed uint64) []modcon.Value {
	rng := xrand.New(seed)
	in := make([]modcon.Value, n)
	for pid := range in {
		in[pid] = modcon.Value(rng.Intn(2))
	}
	in[0], in[n-1] = 0, 1
	return in
}

func TestAttacksMatchScanOracleOnBinary(t *testing.T) {
	attacks := []struct {
		name           string
		attack, oracle func() sched.Scheduler
	}{
		{"first-mover", func() sched.Scheduler { return sched.NewFirstMoverAttack() }, sched.NewScanFirstMoverAttack},
		{"eager-write", func() sched.Scheduler { return sched.NewEagerWriteAttack() }, sched.NewScanEagerWriteAttack},
	}
	for _, n := range []int{8, 64} {
		c, err := modcon.NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range attacks {
			t.Run(fmt.Sprintf("%s/n=%d", a.name, n), func(t *testing.T) {
				// One pair across all seeds, as a Sweep worker reuses its
				// adversary: Seed must reset both the same way.
				l := &lockstep{attack: a.attack(), oracle: a.oracle()}
				for seed := uint64(1); seed <= 6; seed++ {
					if _, err := c.Solve(mixedInputs(n, seed), l, seed); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if l.mismatch != "" {
						t.Fatalf("seed %d %s", seed, l.mismatch)
					}
				}
				if l.steps == 0 {
					t.Fatal("no steps scheduled")
				}
			})
		}
	}
}

// recorder copies every view it is shown (indexed, so a replay sees the
// same kind sets) and lets FirstMoverAttack choose.
type recorder struct {
	inner sched.Scheduler
	views []sched.View
}

func (r *recorder) Next(v *sched.View) int {
	c := *v
	c.Runnable = slices.Clone(v.Runnable)
	c.Pending = slices.Clone(v.Pending)
	c.Memory = slices.Clone(v.Memory)
	c.Kinds = [len(v.Kinds)]sched.PidSet{}
	c.IndexKinds()
	r.views = append(r.views, c)
	return r.inner.Next(v)
}
func (r *recorder) Seed(src *xrand.Source) { r.inner.Seed(src) }
func (r *recorder) Name() string           { return "recorder" }
func (r *recorder) MinPower() sched.Power  { return r.inner.MinPower() }

// recordBinary8 records the views of one first-mover-attack trial of
// NewBinary(8).
func recordBinary8(t *testing.T) []sched.View {
	t.Helper()
	c, err := modcon.NewBinary(8)
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{inner: sched.NewFirstMoverAttack()}
	if _, err := c.Solve(mixedInputs(8, 3), r, 3); err != nil {
		t.Fatal(err)
	}
	return r.views
}

// replay runs s over the recorded views from a fresh Seed.
func replay(s sched.Scheduler, views []sched.View) {
	s.Seed(nil)
	for i := range views {
		s.Next(&views[i])
	}
}

func TestFirstMoverAttackWarmNextZeroAllocs(t *testing.T) {
	views := recordBinary8(t)
	s := sched.NewFirstMoverAttack()
	replay(s, views)
	if allocs := testing.AllocsPerRun(20, func() { replay(s, views) }); allocs != 0 {
		t.Fatalf("a warm FirstMoverAttack allocates %v times per %d-step trial, want 0", allocs, len(views))
	}
}

// firstTrialAllocCap is what a fresh FirstMoverAttack allocated over its
// first NewBinary(8) trial before the kind sets: the attack itself, its two
// attempt arrays and the tracker's candidate buffer. The attempt levels
// must fit in the allocations the attempt arrays made.
const firstTrialAllocCap = 4

func TestFirstMoverAttackFirstTrialAllocs(t *testing.T) {
	views := recordBinary8(t)
	allocs := testing.AllocsPerRun(20, func() { replay(sched.NewFirstMoverAttack(), views) })
	if allocs > firstTrialAllocCap {
		t.Fatalf("a fresh FirstMoverAttack allocates %v times over its first trial, want at most %d", allocs, firstTrialAllocCap)
	}
}
