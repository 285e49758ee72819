// Command perfbench is the repository benchmark: it deploys the packaged
// Figure 10 workflow the way production does (table.ReadCSVFile,
// workflow.Spec.Build, serve.New behind a loopback listener), drives one
// workload for a fixed time, checks every answer against a
// workflow.RunCtx reference, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload online-1x --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for every metric's definition):
//
//	online-1x  single-record POST /v1/match at scale 1.0: per-request
//	           right-side work (blocking) dominates.
//	batch-2x   repeated workflow.RunCtx passes at scale 2.0: whole-table
//	           work (the sure-rule scan and vectorize) dominates.
//	jobs-1x    the whole scale-1.0 left table as an async job, polled and
//	           streamed back: shard granularity plus durable commits.
//
// With --trace 0 the run reports end-to-end metrics. With --trace 1 it
// serves a shorter phase, then replays the same inputs layer by layer
// with spans, and reports per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"emgo/internal/obs"
	"emgo/internal/workflow"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metricVal

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metricVal{Value: v, Unit: unit}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// Paths relative to the checkout root the benchmark runs from.
const (
	workDir    = ".bench_build/work" // tables, cached spec, job dirs, traces
	pinnedFile = "perfbench/reference.json"
	benchFile  = "BENCHMARK.json"
)

// runEnv is what every workload gets.
type runEnv struct {
	seed    int64
	rng     *rand.Rand
	seconds time.Duration
	trace   bool
	spec    *workflow.Spec
	nproc   int
	detail  map[string]any // extra facts printed before the result line
	tally   tally
	metrics metricSet
}

// workloads maps a workload name to the scale of its right table and
// the function that runs it.
var workloads = map[string]struct {
	scale float64
	run   func(ctx context.Context, e *runEnv, tp tablePaths) error
}{
	"online-1x": {1.0, runOnline},
	"batch-2x":  {2.0, runBatch},
	"jobs-1x":   {1.0, runJobs},
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "online-1x | batch-2x | jobs-1x")
	seed := fs.Int64("seed", 1, "seed for arrival schedules and record picks")
	seconds := fs.Int("seconds", 30, "measured time of one run")
	traceFlag := fs.Int("trace", 0, "1 replays the inputs layer by layer and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		return 2, fmt.Errorf("need --workload (%s), --seconds >= 1 and --trace 0|1", strings.Join(names, ", "))
	}
	// Both files are read from the checkout root; their absence means the
	// benchmark is not running from one.
	for _, f := range []string{pinnedFile, benchFile} {
		if _, err := os.Stat(f); err != nil {
			return 2, err
		}
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	// Serving always counts, as in emserve.
	obs.Enable()

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	e := &runEnv{
		seed:    *seed,
		rng:     rand.New(rand.NewSource(*seed)),
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		nproc:   nproc,
		detail:  map[string]any{},
		metrics: metricSet{},
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return 2, err
	}
	var err error
	if e.spec, err = trainedSpec(ctx, workDir); err != nil {
		return 2, err
	}
	tp, err := writeTables(filepath.Join(workDir, "data"), w.scale)
	if err != nil {
		return 2, err
	}
	if err := w.run(ctx, e, tp); err != nil {
		return 2, fmt.Errorf("%s: %w", *workload, err)
	}

	e.detail["env"] = environment(e, *workload)
	if len(e.tally.reasons) > 0 {
		e.detail["failures"] = e.tally.reasons
	}
	res := result{
		Correct:   e.tally.failed == 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   e.metrics,
	}
	if res.Attempted == 0 {
		return 2, errors.New("no operation was attempted")
	}
	if err := conform(benchFile, e.trace, e.metrics); err != nil {
		return 2, err
	}
	detail, err := json.Marshal(e.detail)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, line)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, strings.Join(e.tally.reasons, "; "))
	}
	return 0, nil
}

// environment records where the numbers came from.
func environment(e *runEnv, workload string) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"trace":      e.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      e.nproc,
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"train_seed": trainSeed,
	}
}

// cpuModel reads the CPU model name where the platform exposes it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// phaseDetail records a latency phase's sample count, quantiles and
// observed max in the detail line, and returns its p50.
func (e *runEnv) phaseDetail(name string, l *latencies) float64 {
	s := l.summary()
	e.detail[name] = map[string]any{"n": s.n, "p50_ms": s.p50, "p90_ms": s.p90, "p95_ms": s.p95, "p99_ms": s.p99, "max_ms": s.max}
	return s.p50
}

// declared is the part of BENCHMARK.json that names the metrics.
type declared struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// conform checks the metrics against their declarations: an untraced
// run must report every end-to-end metric, a traced run every per-layer
// one, each with its declared unit and nothing undeclared. A per-layer
// metric a workload has no such layer for is reported as 0.
func conform(path string, traced bool, m metricSet) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := d.EndToEnd
	if traced {
		want = d.PerLayer
	}
	units := map[string]string{}
	for _, w := range want {
		units[w.Name] = w.Unit
		got, ok := m[w.Name]
		switch {
		case !ok && traced:
			m.set(w.Name, 0, w.Unit)
		case !ok:
			return fmt.Errorf("metric %s was not measured", w.Name)
		case got.Unit != w.Unit:
			return fmt.Errorf("metric %s has unit %s, declared %s", w.Name, got.Unit, w.Unit)
		}
	}
	for name := range m {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %s is not declared in %s", name, path)
		}
	}
	return nil
}
