package main

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"github.com/modular-consensus/modcon"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sim"
	"github.com/modular-consensus/modcon/internal/value"
)

// The rungs of the layer ladder. Each runs the cell's reference trials at
// one worker and adds one layer to the rung below it, so the gap between
// neighbouring rungs is that layer's cost per trial:
//
//	sim.bare       the sim engine and the adversary on a no-op read/write
//	               program that replays each process's work of the trial
//	exec.session   exec.Session.Run over the protocol's programs
//	harness.sweep  harness.SweepProtocol
//	modcon.sweep   (*Consensus).Sweep
//
// The bare-loop variants change one setting of sim.bare each, for the
// adversary, register and fault deltas.
const (
	rungBare       = "sim.bare"
	rungBareRR     = "sim.bare_rr"     // round-robin instead of the workload's adversary
	rungBareRegs   = "sim.bare_regs"   // the other register model (atomic <-> regular)
	rungBareFaults = "sim.bare_faults" // faults toggled (the workload's plan <-> none)
	rungExec       = "exec.session"
	rungHarness    = "harness.sweep"
	rungModcon     = "modcon.sweep"
	rungUntraced   = "modcon.sweep_untraced" // modcon.sweep without per-trial spans
)

// solveCalls is how many Build, Solve-replica and Solve calls one round of
// the ladder makes.
const solveCalls = 4

// inertFaults arms the fault injector on every step without ever firing; it
// stands in for "faults on" on workloads that have no fault plan.
const inertFaults = "crash:pid=0,after=1000000000"

// ladder is one traced run. Each round runs one chunk of the reference
// trials through every rung; c, ref and budgets are that chunk's.
type ladder struct {
	full        *cell
	c           *cell
	tr          *tracer
	m           *measurement
	vf          verifier
	sp          speed
	refAll, ref []record
	got         []record
	// budgets[i][pid] is process pid's work in reference trial i: the
	// number of operations the bare loop replays for it.
	budgetsAll, budgets [][]int32
	// roundSteps[i] is the mean reference work of round i's chunk.
	roundSteps []float64
	// registers is the size of the protocol's register file; the bare loop
	// allocates as many, so adversaries that see memory see as much.
	registers int
	start     []int64 // per trial: the sweep inputs hook's stamp
	// allocs[rung] sums the rung's allocations over its batches.
	allocs  map[string]float64
	batches map[string]int
	// sessions counts harness session builds; harnessCalls the harness
	// sweeps they served.
	sessions     atomic.Int64
	harnessCalls int
	// skew names a rung that runs with the next root seed instead of the
	// cell's: the self-test's way to prove the consistency check trips.
	skew string
}

// root returns the Sweep root seed a rung runs the current chunk with, and
// trialSeed the seed of its trial i.
func (l *ladder) root(rung string) uint64 {
	if rung == l.skew {
		return l.c.seed + 1
	}
	return l.c.seed
}

func (l *ladder) trialSeed(rung string, i int) uint64 {
	if rung == l.skew {
		return harness.TrialSeed(l.root(rung), i)
	}
	return l.c.seeds[i]
}

// runLadder is the traced run: it climbs the ladder in rounds, every rung
// once per round so that machine drift hits all rungs alike, until the
// budget is spent, under a CPU profile. Spans and the profile are written
// next to prefix. skew is empty except in the self-test (see ladder.skew).
func runLadder(c *cell, budget time.Duration, prefix, skew string) (*measurement, error) {
	B, K := c.w.batch, c.w.chunks
	l := &ladder{
		full: c, tr: newTracer(), m: newMeasurement(), skew: skew,
		refAll: make([]record, B*K), got: make([]record, B),
		budgetsAll: make([][]int32, B*K), start: make([]int64, B),
		allocs: map[string]float64{}, batches: map[string]int{},
	}
	for k := range K {
		l.setChunk(k)
		if err := l.reference(); err != nil {
			return nil, err
		}
	}
	l.m.counts = countsOf(l.refAll, c.w.m)
	file, _, err := c.cons.Build()
	if err != nil {
		return nil, err
	}
	l.registers = file.Len()
	regs, other := c.w.regs, modcon.Regular
	if regs != modcon.Atomic {
		other = modcon.Atomic
	}
	inert, err := modcon.ParseFaults(inertFaults)
	if err != nil {
		return nil, err
	}

	profPath := prefix + ".cpu.pprof"
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	faultsToggled := inert
	if c.plan != nil {
		faultsToggled = nil
	}
	rr := func() modcon.Scheduler { return modcon.NewRoundRobin() }

	t0 := time.Now()
	rounds := 0
	for ; rounds < 3 || time.Since(t0) < budget; rounds++ {
		l.setChunk(rounds % K)
		l.roundSteps = append(l.roundSteps, countsOf(l.ref, c.w.m).StepsPerTrial)
		l.sp.sample()
		l.bare(rungBare, c.w.newSched, regs, c.plan)
		l.bare(rungBareRR, rr, regs, c.plan)
		l.bare(rungBareRegs, c.w.newSched, other, c.plan)
		l.bare(rungBareFaults, c.w.newSched, regs, faultsToggled)
		l.session()
		l.harness()
		l.modcon(rungModcon, true)
		l.modcon(rungUntraced, false)
		l.solveParts(rounds)
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	if err := l.tr.write(prefix + ".spans.jsonl"); err != nil {
		return nil, err
	}
	cpu, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	l.report(cpu)
	logf("%s: %d rounds of the ladder, %d spans (%d dropped), speed factor %.3f",
		c.w.name, rounds, len(l.tr.spans), l.tr.dropped, l.sp.factor())
	return l.m, nil
}

// setChunk points the ladder at chunk k of the reference trials.
func (l *ladder) setChunk(k int) {
	B := l.full.w.batch
	l.c = l.full.chunk(k)
	l.ref = l.refAll[k*B : (k+1)*B]
	l.budgets = l.budgetsAll[k*B : (k+1)*B]
}

// reference runs the current chunk once through (*Consensus).Sweep at one
// worker; every rung must reproduce it. It also records each process's work
// per trial for the bare loop, and warms the caches up.
func (l *ladder) reference() error {
	c := l.c
	l.m.attempted += c.w.batch
	err := c.cons.Sweep(c.w.batch, c.w.newSched, c.inputsOf, func(t modcon.Trial, o *modcon.Outcome) {
		if err := modcon.Verify(c.inputs[t.Index], o); err != nil {
			l.m.fail(1, err)
		}
		l.ref[t.Index] = c.w.outcomeRecord(o)
		b := make([]int32, len(o.Work))
		for pid, w := range o.Work {
			b[pid] = int32(w)
		}
		l.budgets[t.Index] = b
	}, c.sweepOpts(1)...)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	return nil
}

// batch runs one batch of a rung: body runs the current chunk's trials into
// l.got under the rung's span (its id is body's argument for per-trial
// spans). batch counts the batch's allocations and checks l.got against
// the reference; workOnly compares total work alone.
func (l *ladder) batch(name string, workOnly bool, body func(id int32) error) {
	a := readAllocs()
	id := l.tr.open(name, -1, -1)
	err := body(id)
	l.tr.close(id)
	allocs, _ := a.since()
	l.allocs[name] += allocs
	l.batches[name]++
	B := l.c.w.batch
	l.m.attempted += B
	if err != nil {
		l.m.fail(B, fmt.Errorf("%s: %w", name, err))
		return
	}
	if bad := mismatches(l.ref, l.got, workOnly); bad > 0 {
		l.m.fail(bad, fmt.Errorf("%s: %d trials did not reproduce the reference (total work, decisions, stages)", name, bad))
	}
}

// bare is one batch of the bare step loop: process pid performs exactly its
// reference work, alternating a write to its own register with a read of
// its neighbour's, so every trial repeats the reference total work under
// the given adversary, register model and fault plan, over a register file
// as large as the protocol's.
func (l *ladder) bare(name string, newSched func() modcon.Scheduler, regs modcon.RegisterModel, plan *modcon.FaultPlan) {
	c := l.c
	l.batch(name, true, func(id int32) error {
		file := register.NewFile()
		arr := file.Alloc(max(l.registers, c.w.n), "bare")
		budget := make([]int32, c.w.n)
		prog := func(e core.Env) value.Value {
			pid := e.PID()
			own, next := arr.At(pid), arr.At((pid+1)%c.w.n)
			for k := range budget[pid] {
				if k&1 == 0 {
					e.Write(own, value.Value(k))
				} else {
					e.Read(next)
				}
			}
			return 0
		}
		sess, err := sim.Backend().NewSession(exec.Config{
			N: c.w.n, File: file, Scheduler: newSched(), Registers: regs, Faults: plan,
		}, prog)
		if err != nil {
			return err
		}
		defer sess.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := range l.got {
			copy(budget, l.budgets[i])
			t := l.tr.now()
			res, err := sess.Run(ctx, l.trialSeed(name, i))
			l.tr.addTrial(name+".trial", id, i, t, l.tr.now())
			if err != nil {
				return err
			}
			l.got[i] = record{work: res.TotalWork}
		}
		return nil
	})
}

// session is one batch of the exec rung: the protocol's programs on one
// exec.Session, built the way a harness session builds them, and one
// Session.Run per trial.
func (l *ladder) session() {
	c := l.c
	n := c.w.n
	l.batch(rungExec, false, func(id int32) error {
		file, proto, err := c.cons.Build()
		if err != nil {
			return err
		}
		live := make([]value.Value, n)
		decided := make([]bool, n)
		idx := make([]int32, n)
		stage := func(pid int) (int, bool) { return proto.StageOfIndex(int(idx[pid])) }
		prog := func(e core.Env) value.Value {
			out, i, ok := proto.RunIndexed(e, live[e.PID()])
			decided[e.PID()] = ok
			idx[e.PID()] = int32(i)
			return out
		}
		sess, err := sim.Backend().NewSession(exec.Config{
			N: n, File: file, Scheduler: c.w.newSched(), Registers: c.w.regs, Faults: c.plan,
		}, prog)
		if err != nil {
			return err
		}
		defer sess.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := range l.got {
			copy(live, c.inputs[i])
			clear(decided)
			t := l.tr.now()
			res, err := sess.Run(ctx, l.trialSeed(rungExec, i))
			l.tr.addTrial(rungExec+".trial", id, i, t, l.tr.now())
			if err != nil {
				return err
			}
			if err := l.vf.check(c.inputs[i], res.Outputs, decided); err != nil {
				return err
			}
			l.got[i] = c.w.protocolRecord(res, decided, stage)
		}
		return nil
	})
}

// harness is one batch of the harness rung: harness.SweepProtocol at one
// worker over a spec built the way (*Consensus).Sweep builds it.
func (l *ladder) harness() {
	c := l.c
	l.harnessCalls++
	l.batch(rungHarness, false, func(id int32) error {
		spec := harness.ProtocolSweep{
			Build: func() (*core.Protocol, harness.ObjectConfig) {
				l.sessions.Add(1)
				file, proto, err := c.cons.Build()
				if err != nil {
					panic(err) // unreachable: the reference sweep built this spec
				}
				return proto, harness.ObjectConfig{
					N: c.w.n, File: file, Inputs: []value.Value{0}, Scheduler: c.w.newSched(),
					Registers: c.w.regs, Faults: c.plan,
				}
			},
			Inputs: func(t harness.Trial) []value.Value {
				l.start[t.Index] = l.tr.now()
				return c.inputs[t.Index]
			},
		}
		var run *harness.ProtocolRun
		stage := func(pid int) (int, bool) { return run.DecidedStage(pid) }
		var failed error
		sw := harness.Sweep{Trials: c.w.batch, Workers: 1, Seed: l.root(rungHarness)}
		err := harness.SweepProtocol(sw, spec, func(t harness.Trial, r *harness.ProtocolRun) {
			l.tr.addTrial(rungHarness+".trial", id, t.Index, l.start[t.Index], l.tr.now())
			run = r
			err := run.Violation
			if err == nil {
				err = l.vf.check(c.inputs[t.Index], run.Result.Outputs, run.Decided)
			}
			if failed == nil {
				failed = err
			}
			l.got[t.Index] = c.w.protocolRecord(run.Result, run.Decided, stage)
		})
		if err == nil {
			err = failed
		}
		return err
	})
}

// modcon is one batch of the top rung, (*Consensus).Sweep at one worker,
// with per-trial spans from the inputs hook to the merge callback or, for
// the trace-overhead comparison, without.
func (l *ladder) modcon(name string, traced bool) {
	c := l.c
	l.batch(name, false, func(id int32) error {
		var hook *sweepHook
		if traced {
			hook = &sweepHook{
				inputs: func(t modcon.Trial) { l.start[t.Index] = l.tr.now() },
				merge: func(t modcon.Trial) {
					l.tr.addTrial(name+".trial", id, t.Index, l.start[t.Index], l.tr.now())
				},
			}
		}
		cc := *c
		cc.seed = l.root(name)
		failed, err := cc.sweep(1, l.got, &l.vf, hook)
		if err == nil && failed > 0 {
			err = fmt.Errorf("%d outcomes failed the consensus check", failed)
		}
		return err
	})
}

// solveParts makes solveCalls calls each of Build alone, of a Solve replica
// (a solve span with Build and harness.RunProtocol as child spans), and of
// Solve itself, on reference trials taken in turn.
func (l *ladder) solveParts(round int) {
	c := l.c
	B := c.w.batch
	rc := c.runConfig()

	a := readAllocs()
	id := l.tr.open("modcon.build", -1, -1)
	for range solveCalls {
		t := l.tr.now()
		_, _, err := c.cons.Build()
		l.tr.add("modcon.build.call", id, -1, t, l.tr.now())
		if err != nil {
			l.m.fail(1, err)
		}
	}
	l.tr.close(id)
	allocs, _ := a.since()
	l.allocs["modcon.build"] += allocs
	l.batches["modcon.build"]++

	for k := range solveCalls {
		i := (round/c.w.chunks*solveCalls + k) % B
		l.m.attempted += 2
		s := l.tr.open("solve", -1, i)
		t := l.tr.now()
		file, proto, err := c.cons.Build()
		l.tr.add("solve.build", s, i, t, l.tr.now())
		var run *harness.ProtocolRun
		if err == nil {
			t = l.tr.now()
			run, err = harness.RunProtocol(proto, harness.ObjectConfig{
				N: c.w.n, File: file, Inputs: c.inputs[i], Scheduler: c.w.newSched(), Seed: c.seeds[i],
				Registers: c.w.regs, Faults: c.plan,
			})
			l.tr.add("solve.run_protocol", s, i, t, l.tr.now())
		}
		if err == nil && run.Violation != nil {
			err = run.Violation
		}
		if err == nil && c.w.protocolRecord(run.Result, run.Decided, run.DecidedStage) != l.ref[i] {
			err = fmt.Errorf("solve replica of trial %d did not reproduce the reference", i)
		}
		l.tr.close(s)
		if err != nil {
			l.m.fail(1, err)
		}

		t = l.tr.now()
		o, err := c.cons.Solve(c.inputs[i], c.w.newSched(), c.seeds[i], rc)
		l.tr.add("modcon.solve", -1, i, t, l.tr.now())
		if err == nil {
			err = modcon.Verify(c.inputs[i], o)
		}
		if err == nil && c.w.outcomeRecord(o) != l.ref[i] {
			err = fmt.Errorf("solve of trial %d did not reproduce the reference", i)
		}
		if err != nil {
			l.m.fail(1, err)
		}
	}
}

// report turns the spans and counters into the per-layer metrics. Rung
// times are compared round by round, where every rung ran the same chunk,
// and per-step figures divide by that chunk's mean work; each metric is the
// median over rounds. Times are scaled to the reference machine (see speed).
func (l *ladder) report(cpu map[string]float64) {
	c, m := l.full, l.m
	f := l.sp.factor()
	B := float64(c.w.batch)
	// perTrial[r][i] is rung r's time per trial in round i, in ns.
	perTrial := map[string][]float64{}
	for _, r := range []string{rungBare, rungBareRR, rungBareRegs, rungBareFaults, rungExec, rungHarness, rungModcon, rungUntraced} {
		for _, us := range l.tr.durations(r) {
			perTrial[r] = append(perTrial[r], us*1e3/B/f)
		}
	}
	rounds := func(fn func(i int) float64) float64 {
		xs := make([]float64, len(l.roundSteps))
		for i := range xs {
			xs[i] = fn(i)
		}
		return median(xs)
	}
	// gap is the median of a − b per trial; with b empty, of a alone.
	gap := func(a, b string, perStep bool) float64 {
		return rounds(func(i int) float64 {
			d := perTrial[a][i]
			if b != "" {
				d -= perTrial[b][i]
			}
			if perStep {
				d /= l.roundSteps[i]
			}
			return d
		})
	}
	apt := func(r string) float64 { return l.allocs[r] / (B * float64(l.batches[r])) }

	regular, atomic := rungBareRegs, rungBare
	if c.w.regs != modcon.Atomic {
		regular, atomic = atomic, regular
	}
	faulty, clean := rungBareFaults, rungBare
	if c.plan != nil {
		faulty, clean = clean, faulty
	}
	m.set("sim.bare_ns_per_step", gap(rungBare, "", true), "ns")
	m.set("sched.ns_per_step", gap(rungBare, rungBareRR, true), "ns")
	m.set("register.regular_ns_per_step", gap(regular, atomic, true), "ns")
	m.set("fault.ns_per_step", gap(faulty, clean, true), "ns")
	m.set("exec.session_ns_per_trial", gap(rungExec, "", false), "ns")
	m.set("exec.session_allocs_per_trial", apt(rungExec), "count")
	m.set("core.objects_ns_per_step", gap(rungExec, rungBare, true), "ns")
	m.set("harness.ns_per_trial", gap(rungHarness, rungExec, false), "ns")
	m.set("harness.allocs_per_trial", apt(rungHarness)-apt(rungExec), "count")
	m.set("modcon.ns_per_trial", gap(rungModcon, rungHarness, false), "ns")
	m.set("modcon.allocs_per_trial", apt(rungModcon)-apt(rungHarness), "count")
	m.set("ladder.total_ns_per_trial", gap(rungModcon, "", false), "ns")
	m.set("trace.overhead_frac", rounds(func(i int) float64 { return perTrial[rungModcon][i]/perTrial[rungUntraced][i] - 1 }), "frac")

	fold := l.tr.durations(rungHarness + ".trial")
	m.set("harness.fold_wait_us_p50", quantile(fold, 0.5)/f, "us")
	m.set("harness.fold_wait_us_p90", quantile(fold, 0.9)/f, "us")
	m.set("harness.sessions_built", float64(l.sessions.Load())/float64(l.harnessCalls), "count")

	build := median(l.tr.durations("modcon.build.call")) / f
	partBuild := median(l.tr.durations("solve.build")) / f
	runProto := median(l.tr.durations("solve.run_protocol")) / f
	m.set("modcon.build_us", build, "us")
	m.set("modcon.build_allocs", l.allocs["modcon.build"]/float64(solveCalls*l.batches["modcon.build"]), "count")
	m.set("harness.run_protocol_us", runProto, "us")
	m.set("modcon.solve_overhead_us", median(l.tr.durations("modcon.solve"))/f-partBuild-runProto, "us")

	m.set("core.stages_per_trial", m.counts.StagesPerTrial, "count")
	m.set("fallback.decided_frac", m.counts.FallbackFrac, "frac")
	for name, share := range cpu {
		m.set(name, share, "frac")
	}
}
