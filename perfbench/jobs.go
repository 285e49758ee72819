package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/serve"
	"emgo/internal/table"
)

// jobShardSize is the records per shard the jobs-1x workload asks for
// (the server default), giving 42 shards for the 1336 left rows.
const jobShardSize = serve.DefaultJobShardSize

// jobRun is the outcome of one submitted job.
type jobRun struct {
	latency     time.Duration // submit to the last streamed byte
	streamBytes int
	streamTime  time.Duration
	shards      int
	retries     int
	results     answers // by job index
}

// streamLine is any NDJSON line of a results stream.
type streamLine struct {
	Index    *int          `json:"index"`
	Matches  []serve.Match `json:"matches"`
	Degraded bool          `json:"degraded"`
	Shard    *int          `json:"shard"`
	Done     bool          `json:"done"`
}

// jobBody renders a job submission of the left rows in order.
func jobBody(recs []map[string]any, order []int) ([]byte, error) {
	req := serve.JobSubmitRequest{Records: make([]map[string]any, len(order)), ShardSize: jobShardSize}
	for i, r := range order {
		req.Records[i] = recs[r]
	}
	return json.Marshal(req)
}

// runJob submits body, polls the job to completion, and streams its
// results. Any failure to complete is returned as an error.
func runJob(ep *endpoint, body []byte, n int) (*jobRun, error) {
	start := time.Now()
	var st serve.JobStatus
	code, err := ep.post("/v1/jobs", body, &st)
	if err != nil {
		return nil, err
	}
	if code != 202 {
		return nil, fmt.Errorf("submit: status %d", code)
	}
	for st.State != serve.JobCompleted {
		switch st.State {
		case serve.JobFailed, serve.JobCancelled, serve.JobInterrupted:
			return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
		if code, err = ep.get("/v1/jobs/"+st.ID, &st); err != nil {
			return nil, err
		}
		if code != 200 {
			return nil, fmt.Errorf("poll: status %d", code)
		}
	}
	streamStart := time.Now()
	resp, err := ep.client.Get(ep.base + "/v1/jobs/" + st.ID + "/results?stream=ndjson")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	jr := &jobRun{latency: end.Sub(start), streamBytes: len(data), streamTime: end.Sub(streamStart),
		shards: st.Shards, retries: st.Retries, results: make(answers, n)}
	seen, done := 0, false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("stream line: %w", err)
		}
		switch {
		case l.Index != nil:
			if *l.Index < 0 || *l.Index >= n {
				return nil, fmt.Errorf("stream: index %d out of range", *l.Index)
			}
			if l.Degraded {
				return nil, fmt.Errorf("stream: record %d degraded", *l.Index)
			}
			jr.results[*l.Index] = matchIDs(l.Matches)
			seen++
		case l.Shard != nil:
			return nil, fmt.Errorf("stream: shard %d quarantined", *l.Shard)
		case l.Done:
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if seen != n || !done {
		return nil, fmt.Errorf("stream: %d of %d records, done=%v", seen, n, done)
	}
	return jr, nil
}

// jobServer is a fresh deployment with its own job directory, so a
// content-addressed resubmission never finds a finished job.
type jobServer struct {
	d   *deployment
	ep  *endpoint
	dir string
}

func (j *jobs) newServer(ctx context.Context) (*jobServer, error) {
	dir := j.freshDir()
	d, err := deploy(ctx, j.e.spec, j.tp, tierJobs, dir)
	if err != nil {
		return nil, err
	}
	ep, err := listen(d.srv.Handler(), j.e.nproc)
	if err != nil {
		d.close()
		return nil, err
	}
	return &jobServer{d: d, ep: ep, dir: dir}, nil
}

func (s *jobServer) close() {
	s.ep.close()
	s.d.close()
	os.RemoveAll(s.dir)
}

// jobs drives the jobs-1x workload.
type jobs struct {
	e    *runEnv
	tp   tablePaths
	recs []map[string]any
	ref  answers
	dirs int
	mu   sync.Mutex // guards e.tally
}

func (j *jobs) root() string { return filepath.Join(workDir, "jobs") }

func (j *jobs) freshDir() string {
	j.dirs++
	return filepath.Join(j.root(), strconv.Itoa(j.dirs))
}

// check tallies every record of a job against the reference.
func (j *jobs) check(order []int, jr *jobRun, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.e.tally.add(outcome{err: err})
		return
	}
	for i, r := range order {
		j.e.tally.add(outcome{status: 200, got: jr.results[i], want: j.ref[r]})
	}
}

// alone runs one job on a fresh server.
func (j *jobs) alone(ctx context.Context, body []byte, order []int) (*jobRun, error) {
	s, err := j.newServer(ctx)
	if err != nil {
		return nil, err
	}
	defer s.close()
	jr, err := runJob(s.ep, body, len(order))
	j.check(order, jr, err)
	return jr, nil
}

// together runs nproc jobs at once on one fresh server; each job carries
// its own permutation of the left rows, so the jobs are distinct. It
// returns the records of the completed jobs and the elapsed time.
func (j *jobs) together(ctx context.Context) (int, time.Duration, error) {
	orders := make([][]int, j.e.nproc)
	bodies := make([][]byte, j.e.nproc)
	for k := range orders {
		orders[k] = j.e.rng.Perm(len(j.recs))
		var err error
		if bodies[k], err = jobBody(j.recs, orders[k]); err != nil {
			return 0, 0, err
		}
	}
	s, err := j.newServer(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	start := time.Now()
	runs := make([]*jobRun, len(orders))
	var wg sync.WaitGroup
	for k := range orders {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			jr, err := runJob(s.ep, bodies[k], len(orders[k]))
			j.check(orders[k], jr, err)
			runs[k] = jr
		}(k)
	}
	wg.Wait()
	el := time.Since(start)
	records := 0
	for k, jr := range runs {
		if jr != nil { // a failed job is already tallied
			records += len(orders[k])
		}
	}
	return records, el, nil
}

func runJobs(ctx context.Context, e *runEnv, tp tablePaths) error {
	j := &jobs{e: e, tp: tp}
	// Job directories never outlive the run: a later run reusing one
	// would find its finished jobs.
	if err := os.RemoveAll(j.root()); err != nil {
		return err
	}
	defer os.RemoveAll(j.root())
	d, st, err := timedSetup(ctx, e.spec, tp, tierJobs, j.freshDir)
	if err != nil {
		return err
	}
	e.detail["tables"] = map[string]int{"left": d.left.Len(), "right": d.right.Len()}
	ref, err := checkedReference(ctx, e, d, tp.scale)
	d.close()
	if err != nil {
		return err
	}
	j.ref, j.recs = ref, records(d.left)
	order := make([]int, len(j.recs))
	for i := range order {
		order[i] = i
	}
	body, err := jobBody(j.recs, order)
	if err != nil {
		return err
	}
	// Warm-up job; the heap is measured on its server after it.
	s, err := j.newServer(ctx)
	if err != nil {
		return err
	}
	jr, err := runJob(s.ep, body, len(order))
	j.check(order, jr, err)
	heap := heapInUseMB()
	s.close()
	if e.trace {
		return traceJobs(ctx, e, j, d, body, order, st.readMS)
	}

	// Rounds alternate one job alone with nproc jobs at once, so both
	// phases sample the machine across the whole run. A loaded round is
	// timed until its last job's stream ends: the job tier's shard pool
	// finishes the jobs of a round at different times, but the round's
	// work is fixed.
	seqLat, conc := &latencies{}, &latencies{}
	records := 0
	var el time.Duration
	for start, rounds := time.Now(), 0; rounds == 0 || time.Since(start) < e.seconds; rounds++ {
		jr, err := j.alone(ctx, body, order)
		if err != nil {
			return err
		}
		if jr != nil {
			seqLat.add(jr.latency)
		}
		n, t, err := j.together(ctx)
		if err != nil {
			return err
		}
		conc.add(t)
		records += n
		el += t
		if err := st.sample(ctx, setupPerRound); err != nil {
			return err
		}
	}
	p50 := e.phaseDetail("sequential_jobs", seqLat)
	lp50 := e.phaseDetail("concurrent_rounds", conc)
	e.metrics.set("setup_s", median(st.setupS), "s")
	e.metrics.set("heap_mb", heap, "MB")
	e.metrics.set("p50_ms", p50, "ms")
	e.metrics.set("p50_ms_loaded", lp50, "ms")
	e.metrics.set("throughput_rps", float64(records)/el.Seconds(), "records/s")
	return nil
}

// traceJobs serves jobs one at a time, then replays one job shard by
// shard — decode, the match layers, and the shard commit into a throwaway
// ckpt store — untraced and traced, and checks the replay equals the
// served answers.
func traceJobs(ctx context.Context, e *runEnv, j *jobs, d *deployment, body []byte, order []int, readMS []float64) error {
	gc0, alloc0 := gcCycles(), heapAllocBytes()
	var runs []*jobRun
	for start := time.Now(); len(runs) == 0 || time.Since(start) < scaleDur(e.seconds, 0.3); {
		jr, err := j.alone(ctx, body, order)
		if err != nil {
			return err
		}
		if jr == nil {
			return fmt.Errorf("served job failed: %v", e.tally.reasons)
		}
		runs = append(runs, jr)
	}
	gc1, alloc1 := gcCycles(), heapAllocBytes()
	shards, retries, streamB, streamT := 0, 0, 0, time.Duration(0)
	for _, r := range runs {
		shards += r.shards
		retries += r.retries
		streamB += r.streamBytes
		streamT += r.streamTime
	}
	n := float64(len(runs))

	r, err := newReplayer(d.wf, d.right)
	if err != nil {
		return err
	}
	var ckptBytes int
	replay := func(tr *tracer, op int) (float64, answers, layerCounts, error) {
		var total layerCounts
		store, err := ckpt.Open(j.freshDir(), "replay")
		if err != nil {
			return 0, nil, total, err
		}
		defer os.RemoveAll(store.Dir())
		start := time.Now()
		root := tr.start("op", -1, op)
		left, err := decodeJob(tr, root, op, d.left.Schema(), body)
		if err != nil {
			return 0, nil, total, err
		}
		got := make(answers, left.Len())
		ckptBytes = 0
		for lo := 0; lo < left.Len(); lo += jobShardSize {
			hi := min(lo+jobShardSize, left.Len())
			shard := table.New("shard", left.Schema())
			for i := lo; i < hi; i++ {
				if err := shard.Append(left.Row(i)); err != nil {
					return 0, nil, total, err
				}
			}
			a, c, err := r.match(ctx, tr, root, op, shard, false)
			if err != nil {
				return 0, nil, total, err
			}
			total.add(c)
			copy(got[lo:hi], a)
			sp := tr.start("ckpt.write", root, op)
			data, err := shardPayload(lo, a)
			if err == nil {
				err = store.Write(fmt.Sprintf("shard_%05d.json", lo/jobShardSize), data)
			}
			tr.end(sp)
			if err != nil {
				return 0, nil, total, err
			}
			ckptBytes += len(data)
		}
		tr.end(root)
		return ms(time.Since(start)), got, total, nil
	}
	const replays = 2
	var counts layerCounts
	tr := newTracer()
	plain, traced, err := alternate(replays, func(i int, traced bool) (float64, error) {
		t := tr
		if !traced {
			t = nil
		}
		wall, got, c, err := replay(t, i)
		if err != nil {
			return 0, err
		}
		if traced {
			counts.add(c)
		}
		checkReplay(&e.tally, got, runs[0].results)
		return wall, nil
	})
	if err != nil {
		return err
	}
	if err := tr.write(filepath.Join(workDir, "trace", fmt.Sprintf("jobs-1x-seed%d.json", e.seed))); err != nil {
		return err
	}
	m := e.metrics
	layerReport(tr, counts, replays, m)
	m.set("table.read_ms", median(readMS), "ms")
	m.set("serve.job_shards", float64(shards)/n, "count")
	m.set("serve.job_retries", float64(retries)/n, "count")
	m.set("serve.stream_mb_per_s", float64(streamB)/(1<<20)/streamT.Seconds(), "MB/s")
	m.set("ckpt.bytes", float64(ckptBytes), "B")
	m.set("runtime.gc_cycles", float64(gc1-gc0)/n, "count")
	m.set("runtime.alloc_mb", float64(alloc1-alloc0)/n/(1<<20), "MB")
	m.set("bench.trace_overhead_ms", mean(traced)-mean(plain), "ms")
	e.detail["replay_ms_per_job"] = map[string]float64{"untraced": mean(plain), "traced": mean(traced)}
	return nil
}

// decodeJob replays the job tier's submission decoding.
func decodeJob(tr *tracer, parent, op int, schema *table.Schema, body []byte) (*table.Table, error) {
	sp := tr.start("serve.decode", parent, op)
	defer tr.end(sp)
	req, err := serve.DecodeJobRequest(bytes.NewReader(body), 0, 0)
	if err != nil {
		return nil, err
	}
	t := table.New("job", schema)
	for _, rec := range req.Records {
		row, err := serve.RecordRow(schema, rec)
		if err != nil {
			return nil, err
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// shardPayload renders a replayed shard as the job tier's result
// records.
func shardPayload(lo int, a answers) ([]byte, error) {
	recs := make([]serve.JobRecordResult, len(a))
	for i, ids := range a {
		recs[i] = serve.JobRecordResult{Index: lo + i}
		for _, id := range ids {
			recs[i].Matches = append(recs[i].Matches, serve.Match{RightID: id, Source: "replay"})
		}
	}
	return json.Marshal(recs)
}
