package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"emgo/internal/workflow"
)

// batchPass runs one workflow.RunCtx pass over the whole table pair and
// checks every left row's answer.
func batchPass(ctx context.Context, e *runEnv, mu *sync.Mutex, d *deployment, ref answers) (time.Duration, error) {
	start := time.Now()
	res, err := d.wf.RunCtx(ctx, d.left, d.right, workflow.RunOptions{})
	el := time.Since(start)
	if err != nil {
		return el, err
	}
	got, err := resultAnswers(res, d.left.Len())
	if err != nil {
		return el, err
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range ref {
		e.tally.add(outcome{status: 200, got: got[i], want: ref[i]})
	}
	return el, nil
}

// passes runs workers RunCtx passes at once and waits for them all;
// it returns each pass's time and the elapsed time.
func passes(ctx context.Context, e *runEnv, mu *sync.Mutex, d *deployment, ref answers, workers int) ([]time.Duration, time.Duration, error) {
	els := make([]time.Duration, workers)
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			els[w], errs[w] = batchPass(ctx, e, mu, d, ref)
		}(w)
	}
	wg.Wait()
	return els, time.Since(start), errors.Join(errs...)
}

func runBatch(ctx context.Context, e *runEnv, tp tablePaths) error {
	d, st, err := timedSetup(ctx, e.spec, tp, tierBatch, nil)
	if err != nil {
		return err
	}
	e.detail["tables"] = map[string]int{"left": d.left.Len(), "right": d.right.Len()}
	ref, err := checkedReference(ctx, e, d, tp.scale)
	if err != nil {
		return err
	}
	// The reference pass above is the warm-up.
	heap := heapInUseMB()
	if e.trace {
		return traceBatch(ctx, e, d, ref, st.readMS)
	}

	// Rounds alternate one pass alone with nproc passes at once, so both
	// phases sample the machine across the whole run. A loaded round is
	// timed until its last pass ends: the passes split the cores unevenly
	// from round to round, but their sum of work does not.
	var mu sync.Mutex
	seq, conc := &latencies{}, &latencies{}
	concPasses := 0
	var concTime time.Duration
	for start := time.Now(); concPasses == 0 || time.Since(start) < e.seconds; {
		els, _, err := passes(ctx, e, &mu, d, ref, 1)
		if err != nil {
			return err
		}
		seq.add(els[0])
		els, el, err := passes(ctx, e, &mu, d, ref, e.nproc)
		if err != nil {
			return err
		}
		conc.add(el)
		concPasses += len(els)
		concTime += el
		if err := st.sample(ctx, setupPerRound); err != nil {
			return err
		}
	}
	p50 := e.phaseDetail("sequential_passes", seq)
	lp50 := e.phaseDetail("concurrent_rounds", conc)
	e.metrics.set("setup_s", median(st.setupS), "s")
	e.metrics.set("heap_mb", heap, "MB")
	e.metrics.set("p50_ms", p50, "ms")
	e.metrics.set("p50_ms_loaded", lp50, "ms")
	e.metrics.set("throughput_rps", float64(concPasses*d.left.Len())/concTime.Seconds(), "records/s")
	return nil
}

// traceBatch replays the pass layer by layer, untraced and traced, and
// checks the replay equals the reference. Each untraced replay follows a
// timed RunCtx pass, so the two are compared under the same machine
// conditions.
func traceBatch(ctx context.Context, e *runEnv, d *deployment, ref answers, readMS []float64) error {
	r, err := newReplayer(d.wf, d.right)
	if err != nil {
		return err
	}
	const replays = 2
	var mu sync.Mutex
	var runs []float64
	var gcs, allocs uint64
	var counts layerCounts
	tr := newTracer()
	plain, traced, err := alternate(replays, func(i int, traced bool) (float64, error) {
		t := tr
		if !traced {
			t = nil
			gc0, alloc0 := gcCycles(), heapAllocBytes()
			els, _, err := passes(ctx, e, &mu, d, ref, 1)
			if err != nil {
				return 0, err
			}
			gcs += gcCycles() - gc0
			allocs += heapAllocBytes() - alloc0
			runs = append(runs, ms(els[0]))
		}
		start := time.Now()
		root := t.start("op", -1, i)
		got, c, err := r.match(ctx, t, root, i, d.left, true)
		if err != nil {
			return 0, err
		}
		t.end(root)
		wall := ms(time.Since(start))
		if traced {
			counts.add(c)
		}
		checkReplay(&e.tally, got, ref)
		return wall, nil
	})
	if err != nil {
		return err
	}
	if err := tr.write(filepath.Join(workDir, "trace", fmt.Sprintf("batch-2x-seed%d.json", e.seed))); err != nil {
		return err
	}
	m := e.metrics
	layerReport(tr, counts, replays, m)
	m.set("workflow.run_ms", mean(runs), "ms")
	m.set("workflow.self_ms", mean(runs)-mean(plain), "ms")
	m.set("table.read_ms", median(readMS), "ms")
	m.set("runtime.gc_cycles", float64(gcs)/replays, "count")
	m.set("runtime.alloc_mb", float64(allocs)/replays/(1<<20), "MB")
	m.set("bench.trace_overhead_ms", mean(traced)-mean(plain), "ms")
	e.detail["replay_ms_per_pass"] = map[string]float64{"untraced": mean(plain), "traced": mean(traced)}
	return nil
}
