package modcon

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// memGuard wraps a scheduler and fails the test if its Next writes to
// View.Memory. Memory is the live register file, not a copy, so a write
// there would corrupt the execution itself.
type memGuard struct {
	inner Scheduler
	t     *testing.T
	nexts int
}

// hashMemory is FNV-1a over the cells' 64-bit values.
func hashMemory(mem []value.Value) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range mem {
		for b := 0; b < 64; b += 8 {
			h = (h ^ uint64(m)>>b&0xff) * 1099511628211
		}
	}
	return h
}

func (g *memGuard) Next(v *sched.View) int {
	before := hashMemory(v.Memory)
	pid := g.inner.Next(v)
	if hashMemory(v.Memory) != before {
		g.t.Fatalf("%s mutated View.Memory at step %d", g.inner.Name(), v.Step)
	}
	g.nexts++
	return pid
}

func (g *memGuard) Seed(src *xrand.Source) { g.inner.Seed(src) }
func (g *memGuard) Name() string           { return g.inner.Name() }
func (g *memGuard) MinPower() Power        { return g.inner.MinPower() }

// guardPortfolio lists every scheduler the repository ships: the catalog
// strategies, the searched winners recorded in hypotheses/H1, and a
// parametric adversary for every rule (condition × action) each power class
// admits.
func guardPortfolio(t *testing.T) map[string]func() Scheduler {
	t.Helper()
	out := map[string]func() Scheduler{
		"round-robin":        func() Scheduler { return sched.NewRoundRobin() },
		"uniform-random":     func() Scheduler { return sched.NewUniformRandom() },
		"lockstep":           func() Scheduler { return sched.NewLaggard() },
		"frontrunner":        func() Scheduler { return sched.NewFrontrunner() },
		"fixed-order":        func() Scheduler { return sched.NewFixedOrder([]int{7, 6, 5, 4, 3, 2, 1, 0}) },
		"noisy":              func() Scheduler { return sched.NewNoisy(0.5) },
		"priority":           func() Scheduler { return sched.NewPriority(nil) },
		"split-vote":         func() Scheduler { return sched.NewSplitVote() },
		"stale-read-attack":  func() Scheduler { return sched.NewStaleReadAttack() },
		"first-mover-attack": func() Scheduler { return sched.NewFirstMoverAttack() },
		"eager-write-attack": func() Scheduler { return sched.NewEagerWriteAttack() },
		"adaptive-spoiler":   func() Scheduler { return sched.NewAdaptiveSpoiler() },
	}
	configs := []string{
		"adv:power=value-oblivious,base=lockstep,w=3:0:3:5:1:1:1;rule:when=step-lt:554,do=fire-read;rule:when=prob-pending,do=fire-write;rule:when=prob-pending,do=fire-cheapest-prob",
		"adv:power=location-oblivious,base=rr;rule:when=always,do=fire-read;rule:when=in-flight,do=fire-write",
	}
	for _, power := range []Power{sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive} {
		for _, c := range sched.CondsFor(power) {
			for _, a := range sched.ActsFor(power) {
				cfg := sched.ParamConfig{Power: power, Base: sched.BaseRoundRobin, Weights: []int{2, 1},
					Rules: []sched.ParamRule{{When: c, Do: a}}}
				if c == sched.CondStepGE || c == sched.CondStepLT {
					cfg.Rules[0].K = 40
				}
				configs = append(configs, cfg.String())
			}
		}
	}
	for _, config := range configs {
		if _, err := sched.NewParametricFromString(config); err != nil {
			t.Fatalf("portfolio config %q: %v", config, err)
		}
		out[config] = func() Scheduler {
			s, _ := sched.NewParametricFromString(config)
			return s
		}
	}
	return out
}

// TestSchedulersDoNotMutateLiveMemory runs every shipped scheduler on a real
// NewBinary(8) cell behind memGuard, at the scheduler's own power class.
func TestSchedulersDoNotMutateLiveMemory(t *testing.T) {
	c, err := NewBinary(8)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Value{0, 1, 0, 1, 1, 0, 1, 0}
	for name, mk := range guardPortfolio(t) {
		g := &memGuard{inner: mk(), t: t}
		for seed := uint64(1); seed <= 3; seed++ {
			if _, err := c.Solve(inputs, g, seed); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
		if g.nexts == 0 {
			t.Fatalf("%s: scheduler never consulted", name)
		}
	}
}
