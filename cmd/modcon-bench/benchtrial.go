package main

// Per-trial throughput cells for -bench-core: a write/probwrite/read trial
// workload replayed through a pooled coroutine session, one
// exec.Session.Run per trial.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/sim"
	"github.com/modular-consensus/modcon/internal/value"
)

// trialOps is the iteration count of the trial workload: 64 iterations × 3
// scheduled ops per process, enough work that a trial is not just engine
// arming, small enough that per-trial dispatch stays visible.
const trialOps = 64

// trialCell is one row of the "trial" section of BENCH_sim.json.
type trialCell struct {
	// Mode is "session" (pooled coroutine session, one Run per trial).
	Mode           string  `json:"mode"`
	N              int     `json:"n"`
	Trials         int     `json:"trials"`
	NsPerTrial     float64 `json:"nsPerTrial"`
	TrialsPerSec   float64 `json:"trialsPerSec"`
	AllocsPerTrial int64   `json:"allocsPerTrial"`
}

// trialReport is the "trial" section of BENCH_sim.json.
type trialReport struct {
	Workload    string      `json:"workload"`
	OpsPerTrial int         `json:"opsPerTrial"`
	Results     []trialCell `json:"results"`
}

// trialProgram is the coroutine form of the trial workload: per iteration a
// write, a probabilistic write whose success feeds the accumulator, and a
// read folded mod 3.
func trialProgram(a register.Array) exec.Program {
	return func(e core.Env) value.Value {
		r := a.At(e.PID() % a.Len)
		var acc value.Value
		for i := 0; i < trialOps; i++ {
			e.Write(r, value.Value(i))
			if e.ProbWrite(r, value.Value(i+100), 1, 2) {
				acc++
			}
			acc += e.Read(r) % 3
		}
		return acc
	}
}

// trialSession builds the pooled session under measurement.
func trialSession(n int) (exec.Session, error) {
	f := register.NewFile()
	a := f.Alloc(n, "bench-trial")
	cfg := exec.Config{N: n, File: f, Scheduler: sched.NewUniformRandom(), MaxSteps: 1 << 20}
	return sim.Backend().NewSession(cfg, trialProgram(a))
}

// measureTrials times `trials` executions through run (which covers seeds
// [1, trials]) with process-wide malloc deltas, growing the count until the
// budget fills so short budgets still converge.
func measureTrials(mode string, n int, budget time.Duration,
	run func(trials int) error) (trialCell, error) {
	trials := 256
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := run(trials); err != nil {
			return trialCell{}, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if elapsed >= budget || trials >= 1<<22 {
			ns := float64(elapsed.Nanoseconds()) / float64(trials)
			return trialCell{
				Mode:           mode,
				N:              n,
				Trials:         trials,
				NsPerTrial:     ns,
				TrialsPerSec:   1e9 / ns,
				AllocsPerTrial: int64(m1.Mallocs-m0.Mallocs) / int64(trials),
			}, nil
		}
		grow := int(float64(trials) * float64(budget) / float64(elapsed+1))
		if grow < trials*2 {
			grow = trials * 2
		}
		trials = grow
	}
}

// runBenchTrials measures the session cell for each n and returns the
// report. Every cell replays the same deterministic seed sequence.
func runBenchTrials(ns []int, budget time.Duration) (*trialReport, error) {
	report := &trialReport{
		Workload:    "write-probwrite-read",
		OpsPerTrial: 3 * trialOps,
		Results:     []trialCell{},
	}
	ctx := context.Background()
	for _, n := range ns {
		session, err := trialSession(n)
		if err != nil {
			return nil, err
		}
		cell, err := measureTrials("session", n, budget, func(trials int) error {
			for t := 1; t <= trials; t++ {
				if _, err := session.Run(ctx, uint64(t)); err != nil {
					return err
				}
			}
			return nil
		})
		session.Close()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench-trial: %-8s n=%-4d %10.1f ns/trial %10.0f trials/sec %d allocs/trial\n",
			cell.Mode, cell.N, cell.NsPerTrial, cell.TrialsPerSec, cell.AllocsPerTrial)
		report.Results = append(report.Results, cell)
	}
	return report, nil
}
