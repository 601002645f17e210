package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"github.com/modular-consensus/modcon"
	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
)

// workload is one named cell of the benchmark: a consensus spec, an
// adversary, a register model, a fault plan and a worker count. RATIONALE.md
// says why each one is here.
type workload struct {
	name    string
	n, m    int
	opts    []modcon.Option
	stages  int  // configured stage count; a fallback decision counts as stages+1
	attack  bool // first-mover-attack; round-robin otherwise
	regs    modcon.RegisterModel
	faults  string
	workers int
	// The reference trials are chunks × batch trials. One window of the
	// timed loop runs one chunk: a Sweep of batch trials, or batch Solve
	// calls. The deterministic counts are taken over all chunks.
	batch, chunks int
	solve         bool // the end-to-end loop calls Solve instead of Sweep
}

var workloads = []workload{
	{name: "sweep-n2", n: 2, m: 2, workers: 2, batch: 4096, chunks: 2},
	{name: "sweep-n64-attack", n: 64, m: 2, attack: true, workers: 1, batch: 32, chunks: 32},
	{
		name: "sweep-m16-bounded", n: 32, m: 16,
		opts:   []modcon.Option{modcon.WithStages(1), modcon.WithFallback(true)},
		stages: 1, attack: true, regs: modcon.Regular,
		faults:  "crash:pid=0,after=20;crash:pid=1,after=20;crash:pid=2,after=40;crash:pid=3,after=40",
		workers: 1, batch: 64, chunks: 12,
	},
	{name: "solve-calls", n: 8, m: 2, attack: true, workers: 1, batch: 128, chunks: 4, solve: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) newSched() modcon.Scheduler {
	if w.attack {
		return modcon.NewFirstMoverAttack()
	}
	return modcon.NewRoundRobin()
}

func (w workload) newConsensus() (*modcon.Consensus, error) {
	return modcon.New(w.n, w.m, w.opts...)
}

// cell is a workload made concrete for one seed: the consensus spec, the
// parsed fault plan, and the reference trials' inputs and seeds.
type cell struct {
	w      workload
	seed   uint64
	cons   *modcon.Consensus
	plan   *modcon.FaultPlan
	inputs [][]modcon.Value // per reference trial, one value per process
	seeds  []uint64         // per reference trial: the seed Sweep gives it
}

// chunkSeed is the Sweep root seed of chunk k; chunk 0's is the workload
// seed itself.
func chunkSeed(seed uint64, k int) uint64 { return seed ^ uint64(k)*0x9e3779b97f4a7c15 }

// chunk returns chunk k of the cell: the same spec, its root seed, and its
// slice of the reference trials, indexed from 0 like a Sweep's trials.
func (c *cell) chunk(k int) *cell {
	lo, hi := k*c.w.batch, (k+1)*c.w.batch
	cc := *c
	cc.seed = chunkSeed(c.seed, k)
	cc.inputs, cc.seeds = c.inputs[lo:hi], c.seeds[lo:hi]
	return &cc
}

func newCell(w workload, seed uint64) (*cell, error) {
	cons, err := w.newConsensus()
	if err != nil {
		return nil, err
	}
	c := &cell{w: w, seed: seed, cons: cons}
	if w.faults != "" {
		if c.plan, err = modcon.ParseFaults(w.faults); err != nil {
			return nil, err
		}
	}
	// Mixed inputs: uniform over the value domain, with at least two
	// distinct values per trial so that agreement is never free.
	rng := rand.New(rand.NewPCG(seed, 0x747269616c))
	total := w.batch * w.chunks
	c.inputs = make([][]modcon.Value, total)
	c.seeds = make([]uint64, total)
	for i := range c.inputs {
		in := make([]modcon.Value, w.n)
		for pid := range in {
			in[pid] = modcon.Value(rng.IntN(w.m))
		}
		if w.n > 1 && in[0] == in[1] {
			in[1] = (in[0] + 1) % modcon.Value(w.m)
		}
		c.inputs[i] = in
		c.seeds[i] = harness.TrialSeed(chunkSeed(seed, i/w.batch), i%w.batch)
	}
	return c, nil
}

// inputsOf is the Sweep inputs hook: trial i of every sweep gets the
// reference trial's inputs.
func (c *cell) inputsOf(t modcon.Trial) []modcon.Value { return c.inputs[t.Index] }

// sweepOpts are the run options of the cell's sweeps at the given worker
// count.
func (c *cell) sweepOpts(workers int) []modcon.RunOption {
	opts := []modcon.RunOption{modcon.WithSeed(c.seed), modcon.WithWorkers(workers)}
	if c.w.regs != modcon.Atomic {
		opts = append(opts, modcon.WithRegisters(nil, c.w.regs))
	}
	if c.plan != nil {
		opts = append(opts, modcon.WithFaultPlan(c.plan))
	}
	return opts
}

func (c *cell) runConfig() modcon.RunConfig {
	return modcon.RunConfig{Registers: c.w.regs, Faults: c.plan}
}

// record is what one trial produced, in the terms every rung of the ladder
// can reproduce. The bare step loop reproduces only work.
type record struct {
	work     int          // total work (the paper's cost measure)
	value    modcon.Value // agreed value, None if nobody decided
	decided  int          // processes that decided
	maxStage int          // deepest stage a deciding process reached
	fellBack int          // processes that decided in the fallback object
}

// stageOf maps a deciding process's (stage, fallback) to the stage count
// the deterministic counts use: the fast path is 0, stage i is i, and the
// fallback object is one past the configured stages.
func (w workload) stageOf(stage int, fallback bool) int {
	if fallback {
		return w.stages + 1
	}
	return stage
}

// add counts one deciding process that decided at the given stage.
func (r *record) add(stage int, fellBack bool) {
	r.decided++
	if fellBack {
		r.fellBack++
	}
	r.maxStage = max(r.maxStage, stage)
}

func (w workload) outcomeRecord(o *modcon.Outcome) record {
	r := record{work: o.TotalWork, value: o.Value}
	for pid, d := range o.Decided {
		if d {
			r.add(w.stageOf(o.Stage[pid], o.FellBack[pid]), o.FellBack[pid])
		}
	}
	return r
}

// protocolRecord is the record of a protocol run from its raw result and
// per-process decided flags; stage gives a deciding process's stage and
// whether it decided in the fallback object.
func (w workload) protocolRecord(res *exec.Result, decided []bool, stage func(pid int) (int, bool)) record {
	r := record{work: res.TotalWork, value: modcon.None}
	for pid, d := range decided {
		if !d {
			continue
		}
		if r.value.IsNone() && res.Halted[pid] {
			r.value = res.Outputs[pid]
		}
		s, fell := stage(pid)
		r.add(w.stageOf(s, fell), fell)
	}
	return r
}

// verifier checks agreement and validity of one trial's decided outputs
// with check.Consensus — the check modcon.Verify makes — through a reused
// buffer, so every rung of the ladder pays the same, allocation-free check.
type verifier struct{ buf []modcon.Value }

func (v *verifier) check(inputs, outputs []modcon.Value, decided []bool) error {
	v.buf = v.buf[:0]
	for pid, d := range decided {
		if d {
			v.buf = append(v.buf, outputs[pid])
		}
	}
	return check.Consensus(inputs, v.buf)
}

// counts are the deterministic per-seed counts of a reference trial set.
type counts struct {
	Trials         int     `json:"trials"`
	StepsPerTrial  float64 `json:"steps_per_trial"`
	StagesPerTrial float64 `json:"core.stages_per_trial"`
	FallbackFrac   float64 `json:"fallback.decided_frac"`
	Digest         string  `json:"digest"`
	Tally          []int   `json:"tally"` // trials per agreed value; last slot: no decision
}

func countsOf(rs []record, m int) counts {
	c := counts{Trials: len(rs), Tally: make([]int, m+1)}
	var work, stages, decided, fell int
	h := fnv.New64a()
	var b [40]byte
	for _, r := range rs {
		work += r.work
		stages += r.maxStage
		decided += r.decided
		fell += r.fellBack
		if r.value.IsNone() {
			c.Tally[m]++
		} else {
			c.Tally[r.value]++
		}
		for i, x := range []int{r.work, int(r.value), r.decided, r.maxStage, r.fellBack} {
			for k := 0; k < 8; k++ {
				b[i*8+k] = byte(uint64(x) >> (8 * k))
			}
		}
		h.Write(b[:])
	}
	n := float64(max(len(rs), 1))
	c.StepsPerTrial = float64(work) / n
	c.StagesPerTrial = float64(stages) / n
	if decided > 0 {
		c.FallbackFrac = float64(fell) / float64(decided)
	}
	c.Digest = fmt.Sprintf("%016x", h.Sum64())
	return c
}

// mismatches counts the trials of got that differ from the reference; with
// workOnly only total work is compared (the bare step loop decides nothing).
func mismatches(ref, got []record, workOnly bool) int {
	bad := 0
	for i := range ref {
		switch {
		case i >= len(got):
			bad++
		case workOnly:
			if got[i].work != ref[i].work {
				bad++
			}
		case got[i] != ref[i]:
			bad++
		}
	}
	return bad
}
