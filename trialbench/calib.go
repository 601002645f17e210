package main

import (
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// calibRefSeconds is the time one calibration unit takes on the reference
// machine (a 2-vCPU Intel Xeon VM). Every timing the benchmark reports is
// scaled by calibRefSeconds over the median time of the calibration units
// run in the same process between its measuring windows. A shared machine's
// speed drifts by up to ~2× between identical runs minutes apart; the
// calibration loop drifts with it, so the scaled figures compare across
// runs. Raw figures go to standard error.
const calibRefSeconds = 0.006

var calibSink atomic.Uint64

// calibProcs and calibSteps shape one calibration unit: a miniature step
// loop of calibProcs coroutines over a shared array, calibSteps steps long.
const (
	calibProcs = 64
	calibSteps = 12000
)

// calibrate runs one calibration unit and returns its duration in seconds.
// The unit is the benchmark's own miniature of a simulated execution, so it
// slows down with the machine the way trials do: coroutines switched
// through iter.Pull, a scheduler scanning a per-process view, reads and
// writes to a shared array, and an occasional small allocation. No change to
// the program under test moves it.
func calibrate() float64 {
	t0 := time.Now()
	var sink uint64
	mem := make([]uint64, 4096)
	pending := make([]uint64, calibProcs)
	nexts := make([]func() (uint64, bool), calibProcs)
	stops := make([]func(), calibProcs)
	for pid := range calibProcs {
		x := uint64(pid)*0x9e3779b97f4a7c15 + 1
		nexts[pid], stops[pid] = iter.Pull(func(yield func(uint64) bool) {
			for {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				i := x & 4095
				if x&1 == 0 {
					mem[i] = x
				} else {
					x += mem[i]
				}
				if x&63 == 0 {
					p := new([4]uint64)
					p[0] = x
					sink += p[0]
				}
				if !yield(x) {
					return
				}
			}
		})
	}
	for pid := range calibProcs {
		pending[pid], _ = nexts[pid]()
	}
	for range calibSteps {
		best := 0
		for pid, v := range pending {
			if v>>32 > pending[best]>>32 {
				best = pid
			}
		}
		pending[best], _ = nexts[best]()
	}
	for _, stop := range stops {
		stop()
	}
	calibSink.Add(sink)
	return time.Since(t0).Seconds()
}

// speed tracks the calibration units of one run. A sample runs one unit on
// each of workers goroutines at once, so a run that keeps several CPUs busy
// is scaled by the speed of all of them; the sample is the units' mean time.
type speed struct {
	workers int
	units   []float64
}

func (s *speed) sample() {
	d := make([]float64, max(s.workers, 1))
	var wg sync.WaitGroup
	for i := range d {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d[i] = calibrate()
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, x := range d {
		sum += x
	}
	s.units = append(s.units, sum/float64(len(d)))
}

// factor is measured/reference calibration time: > 1 when the machine runs
// slower than the reference. Divide rates by it and times by it to scale
// them to the reference machine.
func (s *speed) factor() float64 {
	if len(s.units) == 0 {
		s.sample()
	}
	return median(slices.Clone(s.units)) / calibRefSeconds
}
