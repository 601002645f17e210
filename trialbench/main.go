// Command trialbench is the repository's benchmark: it times one trial of a
// paper protocol end to end on four workloads and, in a separate traced run,
// splits that time into the layers it passes through. See RATIONALE.md for
// the workloads, the metrics and the layer ladder.
//
// Usage, from the root of the repository:
//
//	bash trialbench/run.sh --workload sweep-n2 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones. Progress and
// diagnostics go to standard error. The run exits non-zero if any trial
// errors, violates safety, or fails to reproduce the reference trials.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir holds the run's records: spans, CPU profiles and per-seed counts.
const outDir = ".bench_build/trialbench"

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trialbench: "+format+"\n", args...)
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: sweep-n2, sweep-n64-attack, sweep-m16-bounded or solve-calls")
	seed := flag.Uint64("seed", 1, "workload seed: the inputs and every trial seed derive from it")
	seconds := flag.Int("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, budget time.Duration, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if budget <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	c, err := newCell(w, seed)
	if err != nil {
		return err
	}
	// A workload uses as many CPUs as it has workers, its garbage collection
	// included, so a one-worker run does not depend on how busy a second CPU
	// is: on a shared machine that made the tail of allocation-heavy
	// workloads swing by 2×.
	runtime.GOMAXPROCS(w.workers)
	var m *measurement
	if traced {
		m, err = runLadder(c, budget, filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed)), "")
		if err != nil {
			return err
		}
	} else {
		m = runEndToEnd(c, budget)
	}
	if err := recordCounts(w.name, seed, m.counts); err != nil {
		return err
	}
	rep := report{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if m.failed > 0 {
		return fmt.Errorf("%d of %d trials failed; first: %v", m.failed, m.attempted, m.firstErr)
	}
	return nil
}

// recordCounts appends the run's deterministic counts to a per-workload
// JSON-lines file, so a later claim can be re-checked seed by seed.
func recordCounts(workload string, seed uint64, c counts) error {
	f, err := os.OpenFile(filepath.Join(outDir, "counts-"+workload+".jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Seed uint64 `json:"seed"`
		counts
	}{seed, c})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
