package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"emgo/internal/serve"
)

// online drives POST /v1/match on one deployment.
type online struct {
	e      *runEnv
	ep     *endpoint
	bodies [][]byte
	ref    answers
	mu     sync.Mutex // guards e.tally
}

// served is one answered request.
type served struct {
	row      int
	latency  time.Duration // from the due time (open loop) or the send
	lag      time.Duration // how late the generator sent it
	pipeline float64       // the server's elapsed_ms
	status   int
	degraded bool
	ids      []string
}

// do sends row's request and checks the answer against the reference.
func (o *online) do(row int, due time.Time) served {
	sent := time.Now()
	var resp serve.MatchResponse
	status, err := o.ep.post("/v1/match", o.bodies[row], &resp)
	s := served{row: row, latency: time.Since(due), lag: sent.Sub(due), pipeline: resp.ElapsedMS,
		status: status, degraded: resp.Degraded, ids: matchIDs(resp.Matches)}
	o.mu.Lock()
	o.e.tally.add(outcome{status: status, degraded: resp.Degraded, got: s.ids, want: o.ref[row], err: err})
	o.mu.Unlock()
	return s
}

// openLoop sends each arrival at its due time, whatever is still in
// flight, and times it from that due time.
func (o *online) openLoop(sched []arrival) []served {
	out := make([]served, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			out[i] = o.do(a.row, due)
		}(i, a)
	}
	wg.Wait()
	return out
}

// closedLoop sends rows on workers connections, each connection
// sending its next record when its previous answer arrives. It returns
// the elapsed time.
func (o *online) closedLoop(rows []int, workers int) time.Duration {
	start := time.Now()
	next := make(chan int, len(rows)) // holds every row, so sends never block
	for _, r := range rows {
		next <- r
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				o.do(r, time.Now())
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func latencyOf(xs []served) *latencies {
	l := &latencies{}
	for _, s := range xs {
		l.add(s.latency)
	}
	return l
}

// online-1x splits --seconds into rounds; each round runs a slice of
// the 20 rps phase, of the loaded phase, and of the closed-loop
// permutation, so every phase samples the machine across the whole run
// rather than one stretch of it. The light phase gets the largest share
// because its tail needs the most samples. The loaded rate is about a
// third of the closed-loop saturation rate on a 2-core machine (about
// 110 records/s), where queueing shows but a slower stretch of the
// machine does not tip the phase into saturation.
const (
	onlineRounds      = 5
	onlineLightShare  = 0.45
	onlineLoadedShare = 0.3
	lightRPS          = 20
	loadedRPS         = 40
)

func runOnline(ctx context.Context, e *runEnv, tp tablePaths) error {
	d, st, err := timedSetup(ctx, e.spec, tp, tierOnline, nil)
	if err != nil {
		return err
	}
	defer d.close()
	e.detail["tables"] = map[string]int{"left": d.left.Len(), "right": d.right.Len()}
	ref, err := checkedReference(ctx, e, d, tp.scale)
	if err != nil {
		return err
	}
	bodies, err := matchBodies(records(d.left))
	if err != nil {
		return err
	}
	ep, err := listen(d.srv.Handler(), e.nproc)
	if err != nil {
		return err
	}
	defer ep.close()
	o := &online{e: e, ep: ep, bodies: bodies, ref: ref}

	// Warm-up: every connection open, code paths and heap grown.
	warm := e.rng.Perm(len(bodies))[:200]
	for _, r := range warm {
		o.do(r, time.Now())
	}
	heap := heapInUseMB()

	if e.trace {
		light := poissonSchedule(e.rng, lightRPS, scaleDur(e.seconds, onlineLightShare), len(bodies))
		return traceOnline(ctx, e, o, d, light, st.readMS)
	}
	// The closed loop covers one whole seeded permutation per run, so
	// every run does the same work there.
	perm := e.rng.Perm(len(bodies))
	var lightRes, loaded []served
	var closed time.Duration
	for r := 0; r < onlineRounds; r++ {
		round := e.seconds / onlineRounds
		lightRes = append(lightRes, o.openLoop(poissonSchedule(e.rng, lightRPS, scaleDur(round, onlineLightShare), len(bodies)))...)
		loaded = append(loaded, o.openLoop(poissonSchedule(e.rng, loadedRPS, scaleDur(round, onlineLoadedShare), len(bodies)))...)
		closed += o.closedLoop(perm[r*len(perm)/onlineRounds:(r+1)*len(perm)/onlineRounds], e.nproc)
		if err := st.sample(ctx, setupPerRound); err != nil {
			return err
		}
	}

	p50 := e.phaseDetail("light_20rps", latencyOf(lightRes))
	lp50 := e.phaseDetail("loaded_40rps", latencyOf(loaded))
	e.detail["closed_loop"] = map[string]any{"records": len(perm), "seconds": closed.Seconds(), "connections": e.nproc}
	e.metrics.set("setup_s", median(st.setupS), "s")
	e.metrics.set("heap_mb", heap, "MB")
	e.metrics.set("p50_ms", p50, "ms")
	e.metrics.set("p50_ms_loaded", lp50, "ms")
	e.metrics.set("throughput_rps", float64(len(perm))/closed.Seconds(), "records/s")
	return nil
}

// traceOnline serves the 20 rps phase, then replays its requests layer
// by layer, untraced and traced, and checks the replay answers equal the
// served ones.
func traceOnline(ctx context.Context, e *runEnv, o *online, d *deployment, sched []arrival, readMS []float64) error {
	gc0, alloc0 := gcCycles(), heapAllocBytes()
	res := o.openLoop(sched)
	gc1, alloc1 := gcCycles(), heapAllocBytes()
	n := float64(len(res))
	e.phaseDetail("light_20rps", latencyOf(res))

	var pipeline, overhead, lag []float64
	shed, degraded := 0, 0
	want := make(answers, len(res))
	for i, s := range res {
		pipeline = append(pipeline, s.pipeline)
		overhead = append(overhead, ms(s.latency)-s.pipeline)
		lag = append(lag, ms(s.lag))
		if s.status == 429 {
			shed++
		}
		if s.degraded {
			degraded++
		}
		want[i] = s.ids
	}

	r, err := newReplayer(d.wf, d.right)
	if err != nil {
		return err
	}
	got := make(answers, len(res))
	var counts layerCounts
	once := func(tr *tracer, i int) (float64, error) {
		start := time.Now()
		root := tr.start("op", -1, i)
		left, err := decodeRequest(tr, root, i, d.left.Schema(), o.bodies[res[i].row])
		if err != nil {
			return 0, err
		}
		a, c, err := r.match(ctx, tr, root, i, left, false)
		if err != nil {
			return 0, err
		}
		tr.end(root)
		if tr != nil {
			got[i] = a[0]
			counts.add(c)
		}
		return ms(time.Since(start)), nil
	}
	tr := newTracer()
	plain, traced, err := alternate(len(res), func(i int, traced bool) (float64, error) {
		if traced {
			return once(tr, i)
		}
		return once(nil, i)
	})
	if err != nil {
		return err
	}
	checkReplay(&e.tally, got, want)
	if err := tr.write(filepath.Join(workDir, "trace", fmt.Sprintf("online-1x-seed%d.json", e.seed))); err != nil {
		return err
	}

	m := e.metrics
	layerReport(tr, counts, len(res), m)
	m.set("table.read_ms", median(readMS), "ms")
	m.set("serve.pipeline_ms", median(pipeline), "ms")
	m.set("serve.overhead_ms", median(overhead), "ms")
	m.set("serve.shed", float64(shed), "count")
	m.set("serve.degraded", float64(degraded), "count")
	m.set("runtime.gc_cycles", float64(gc1-gc0)/n, "count")
	m.set("runtime.alloc_mb", float64(alloc1-alloc0)/n/(1<<20), "MB")
	m.set("bench.send_lag_ms", quantile(lag, 0.99), "ms")
	m.set("bench.trace_overhead_ms", mean(traced)-mean(plain), "ms")
	e.detail["replay_ms_per_request"] = map[string]float64{"untraced": mean(plain), "traced": mean(traced)}
	return nil
}

// scaleDur is share of d.
func scaleDur(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}
