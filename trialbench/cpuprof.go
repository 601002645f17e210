package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// modulePrefix is the import path prefix of the program under test.
const modulePrefix = "github.com/modular-consensus/modcon"

// cpuBuckets are the packages whose CPU share the traced run reports. A
// sample belongs to the innermost frame of its stack that lies in the
// program under test or in fmt, so a package's share includes the runtime
// work it calls into (allocation, coroutine switches).
var cpuBuckets = map[string]string{
	modulePrefix + "/internal/sim":         "cpu.sim_share",
	modulePrefix + "/internal/sched":       "cpu.sched_share",
	modulePrefix + "/internal/ratifier":    "cpu.ratifier_share",
	modulePrefix + "/internal/conciliator": "cpu.conciliator_share",
	modulePrefix + "/internal/harness":     "cpu.harness_share",
	"fmt":                                  "cpu.fmt_share",
}

// gcFrames mark a sample as garbage-collector work wherever they appear in
// its stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone",
}

// cpuShares buckets a CPU profile with the toolchain's pprof and returns the
// cpu.* shares: the cross-cutting coroutine-switch and GC shares (any frame
// of the stack), and one share per package in cpuBuckets.
func cpuShares(profile string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	var out, stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return bucket(out.String()), nil
}

// bucket parses `go tool pprof -traces` output: blocks separated by dashed
// lines, each a sample value and its leaf frame on the first line, then the
// callers one per line.
func bucket(traces string) map[string]float64 {
	shares := map[string]float64{"cpu.coroswitch_share": 0, "cpu.gc_share": 0}
	for _, name := range cpuBuckets {
		shares[name] = 0
	}
	var total float64
	var value time.Duration
	var frames []string
	flush := func() {
		if value <= 0 {
			return
		}
		v := value.Seconds()
		total += v
		coro, gc, owner := false, false, ""
		for _, f := range frames {
			coro = coro || strings.HasPrefix(f, "runtime.coroswitch") || f == "runtime.mcall"
			for _, g := range gcFrames {
				gc = gc || strings.HasPrefix(f, g)
			}
			if owner == "" {
				owner = cpuBuckets[framePackage(f)]
			}
		}
		if coro {
			shares["cpu.coroswitch_share"] += v
		}
		if gc {
			shares["cpu.gc_share"] += v
		}
		if owner != "" {
			shares[owner] += v
		}
		value, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(traces))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if len(fields) == 0 || strings.Contains(line, ": ") {
			continue // header lines ("Type: cpu", ...)
		}
		if len(fields) == 2 {
			if d, err := time.ParseDuration(fields[0]); err == nil {
				flush()
				value = d
				frames = append(frames, fields[1])
				continue
			}
		}
		frames = append(frames, fields[len(fields)-1])
	}
	flush()
	if total == 0 {
		logf("the CPU profile has no samples; every cpu share reads 0")
		return shares
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}

// framePackage returns the import path of the package a pprof function name
// belongs to: "github.com/x/y/internal/sim.(*Engine).step" gives
// "github.com/x/y/internal/sim".
func framePackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
