package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/modular-consensus/modcon"
)

// setupRuns is how many times a run sets its cell up from nothing; setup_s
// is the median.
const setupRuns = 51

// sweepGroup is how many consecutive Sweep calls one latency group holds.
// Medians over groups keep the p90 steady through the machine's slow phases
// of a second or two.
const sweepGroup = 16

// measurement collects one run's metrics and its trial accounting.
type measurement struct {
	metrics   map[string]metric
	attempted int
	failed    int
	firstErr  error
	counts    counts
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMeasurement() *measurement { return &measurement{metrics: map[string]metric{}} }

func (m *measurement) set(name string, v float64, unit string) {
	m.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts n failed trials and keeps the first cause for the report.
func (m *measurement) fail(n int, err error) {
	m.failed += n
	if m.firstErr == nil && err != nil {
		m.firstErr = err
	}
}

// sweepHook lets the traced run stamp each sweep trial at its inputs hook
// and at its merge callback.
type sweepHook struct {
	inputs func(t modcon.Trial)
	merge  func(t modcon.Trial)
}

// sweep runs the cell's reference trials once through (*Consensus).Sweep and
// fills recs. vf nil checks each Outcome with modcon.Verify; the ladder
// passes its shared verifier instead.
func (c *cell) sweep(workers int, recs []record, vf *verifier, hook *sweepHook) (failed int, err error) {
	inputs := c.inputsOf
	if hook != nil {
		inputs = func(t modcon.Trial) []modcon.Value {
			hook.inputs(t)
			return c.inputs[t.Index]
		}
	}
	err = c.cons.Sweep(c.w.batch, c.w.newSched, inputs, func(t modcon.Trial, o *modcon.Outcome) {
		if hook != nil {
			hook.merge(t)
		}
		var verr error
		if vf != nil {
			verr = vf.check(c.inputs[t.Index], o.Outputs, o.Decided)
		} else {
			verr = modcon.Verify(c.inputs[t.Index], o)
		}
		if verr != nil {
			failed++
		}
		recs[t.Index] = c.w.outcomeRecord(o)
	}, c.sweepOpts(workers)...)
	return failed, err
}

// setupSeed is the root seed of the set-up trial, the same for every
// workload seed, so that the set-up time does not depend on the seed.
const setupSeed = 1

// setUp times building the cell's consensus spec from nothing and running
// one trial — one Sweep of one trial, or one Solve call — setupRuns times,
// each after a garbage collection, and returns the median in seconds. The
// trial has unanimous inputs and a fixed seed, so it decides on the fast
// path in a few steps, and the time is that of setting up.
func (c *cell) setUp(m *measurement) float64 {
	unanimous := []modcon.Value{0}
	fixed := *c
	fixed.seed = setupSeed
	times := make([]float64, 0, setupRuns)
	for range setupRuns {
		runtime.GC()
		t0 := time.Now()
		cons, err := c.w.newConsensus()
		if err == nil {
			if c.w.solve {
				_, err = cons.Solve(unanimous, c.w.newSched(), setupSeed, c.runConfig())
			} else {
				err = cons.Sweep(1, c.w.newSched, func(modcon.Trial) []modcon.Value { return unanimous }, nil, fixed.sweepOpts(c.w.workers)...)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		m.attempted++
		if err != nil {
			m.fail(1, fmt.Errorf("set-up: %w", err))
		}
	}
	return median(times)
}

// window runs one chunk of the reference trials end to end: one Sweep at the
// workload's worker count, or one Solve call per trial (storing each call's
// latency in lat).
func (c *cell) window(recs []record, lat []float64) (int, error) {
	if c.w.solve {
		return c.solveWindow(recs, lat)
	}
	return c.sweep(c.w.workers, recs, nil, nil)
}

// runEndToEnd measures the workload with tracing off: set-up, one pass over
// the reference trials (the warm-up, whose records every later window must
// reproduce), then a closed loop of windows, chunk after chunk, for the
// given time. A calibration unit runs between windows (see speed).
func runEndToEnd(c *cell, budget time.Duration) *measurement {
	m := newMeasurement()
	sp := speed{workers: c.w.workers}
	sp.sample()
	setup := c.setUp(m)

	B, K := c.w.batch, c.w.chunks
	ref := make([]record, B*K)
	got := make([]record, B)
	lat := make([]float64, B) // Solve call latencies of one window, µs
	for k := range K {
		m.attempted += B
		if failed, err := c.chunk(k).window(ref[k*B:(k+1)*B], lat); failed > 0 || err != nil {
			m.fail(max(failed, 1), err)
		}
	}
	m.counts = countsOf(ref, c.w.m)

	runtime.GC()
	allocs0 := readAllocs()
	// rates holds each window's trials/s. p90s holds the p90 latency of
	// each group of calls: a window of Solve calls, or sweepGroup
	// consecutive Sweep calls. p50s holds each Solve window's median; a
	// Sweep window is one call, and calls holds all their latencies.
	var rates, p50s, p90s, calls, group []float64
	trials := 0
	t0 := time.Now()
	for j := 0; len(p90s) < 3 || time.Since(t0) < budget; j++ {
		k := j % K
		w0 := time.Now()
		failed, err := c.chunk(k).window(got, lat)
		d := time.Since(w0)
		trials += B
		m.attempted += B
		if bad := mismatches(ref[k*B:(k+1)*B], got, false); bad > 0 {
			m.fail(bad, fmt.Errorf("chunk %d diverged from the reference trials in %d trials", k, bad))
		}
		if failed > 0 || err != nil {
			m.fail(max(failed, 1), err)
		}
		rates = append(rates, float64(B)/d.Seconds())
		if c.w.solve {
			p50s = append(p50s, quantile(lat, 0.5))
			p90s = append(p90s, quantile(lat, 0.9))
		} else {
			calls = append(calls, float64(d)/1e3)
			group = append(group, float64(d)/1e3)
			if len(group) == sweepGroup {
				p90s = append(p90s, quantile(group, 0.9))
				group = group[:0]
			}
		}
		sp.sample()
	}
	allocs, bytes := allocs0.since()

	f := sp.factor()
	tps, p50, p90 := median(rates), median(p50s), median(p90s)
	if !c.w.solve {
		// One Sweep call at a time: the median call is the median window.
		p50 = median(calls)
	}
	logf("%s: %d windows of %d trials, %d latency groups; raw trials_per_s %.1f, latency_us p50 %.1f p90 %.1f, setup_s %.6f; speed factor %.3f",
		c.w.name, len(rates), B, len(p90s), tps, p50, p90, setup, f)
	m.set("setup_s", setup/f, "s")
	m.set("trials_per_s", tps*f, "1/s")
	m.set("latency_us_p50", p50/f, "us")
	m.set("latency_us_p90", p90/f, "us")
	m.set("steps_per_trial", m.counts.StepsPerTrial, "count")
	m.set("allocs_per_trial", allocs/float64(trials), "count")
	m.set("bytes_per_trial", bytes/float64(trials), "B")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("ok_frac", 1-float64(m.failed)/float64(m.attempted), "frac")
	return m
}

// solveWindow calls Solve once per reference trial, back to back, each
// call with a fresh adversary, and stores each call's latency in µs.
func (c *cell) solveWindow(recs []record, lat []float64) (failed int, err error) {
	rc := c.runConfig()
	for i := range recs {
		t0 := time.Now()
		o, serr := c.cons.Solve(c.inputs[i], c.w.newSched(), c.seeds[i], rc)
		lat[i] = float64(time.Since(t0)) / 1e3
		if serr == nil {
			serr = modcon.Verify(c.inputs[i], o)
		}
		if serr != nil {
			failed++
			err = serr
			recs[i] = record{}
			continue
		}
		recs[i] = c.w.outcomeRecord(o)
	}
	return failed, err
}
