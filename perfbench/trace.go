package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"emgo/internal/block"
	"emgo/internal/ml"
	"emgo/internal/rules"
	"emgo/internal/serve"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// The traced run replays a workload's inputs by calling each layer's
// public functions in the order the served pipeline calls them, and
// records one span around each call. Spans live in memory until the run
// ends and are then written to a JSON file.

// span is one timed call: name, start and end (ns since the trace
// began), the index of the span that caused it (-1 for a root), and the
// operation (request, pass or job) it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCycles is the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapInUseMB is the live heap after a full collection.
func heapInUseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerCounts are the work counts the replay sees at layer boundaries.
type layerCounts struct {
	surePairs   int // pairs judged by the sure rules
	sureHits    int // sure matches
	blocked     int // blocker union output
	pairs       int // candidates vectorized (blocked minus sure)
	predictions int
	positives   int // predicted matches before veto
	vetoed      int
	final       int
	blockAlloc  uint64 // bytes allocated inside blocking (traced only)
	vecAlloc    uint64 // bytes allocated inside vectorize (traced only)
}

func (c *layerCounts) add(o layerCounts) {
	c.surePairs += o.surePairs
	c.sureHits += o.sureHits
	c.blocked += o.blocked
	c.pairs += o.pairs
	c.predictions += o.predictions
	c.positives += o.positives
	c.vetoed += o.vetoed
	c.final += o.final
	c.blockAlloc += o.blockAlloc
	c.vecAlloc += o.vecAlloc
}

// replayer calls the deployed pipeline's layers one by one.
type replayer struct {
	wf       *workflow.Workflow
	right    *table.Table
	rightIDs []string
}

func newReplayer(wf *workflow.Workflow, right *table.Table) (*replayer, error) {
	j, err := right.Col("RecordId")
	if err != nil {
		return nil, err
	}
	ids := make([]string, right.Len())
	for i := range ids {
		ids[i] = right.Row(i)[j].Str()
	}
	return &replayer{wf: wf, right: right, rightIDs: ids}, nil
}

// decodeRequest replays serve's request decoding: the body of one
// /v1/match request becomes a one-row table under the left schema.
func decodeRequest(tr *tracer, parent, op int, schema *table.Schema, body []byte) (*table.Table, error) {
	sp := tr.start("serve.decode", parent, op)
	defer tr.end(sp)
	req, err := serve.DecodeMatchRequest(bytes.NewReader(body), 0)
	if err != nil {
		return nil, err
	}
	row, err := serve.RecordRow(schema, req.Record)
	if err != nil {
		return nil, err
	}
	t := table.New("request", schema)
	return t, t.Append(row)
}

// match runs sure rules, blocking, vectorize, impute, predict and veto
// over left against the deployed right table, recording a span per
// layer under parent. wholeTable selects the batch path's
// Engine.SureMatches; otherwise the sure rules run per pair through
// JudgeWithRule as serve does. It returns the answers per left row.
func (r *replayer) match(ctx context.Context, tr *tracer, parent, op int, left *table.Table, wholeTable bool) (answers, layerCounts, error) {
	var c layerCounts
	wf := r.wf

	sp := tr.start("rules.sure", parent, op)
	var sure *block.CandidateSet
	if wholeTable {
		sure = wf.SureRules.SureMatches(left, r.right)
	} else {
		sure = block.NewCandidateSet(left, r.right)
		for i := 0; i < left.Len(); i++ {
			row := left.Row(i)
			for j := 0; j < r.right.Len(); j++ {
				if v, _ := wf.SureRules.JudgeWithRule(row, r.right.Row(j)); v == rules.Match {
					sure.Add(block.Pair{A: i, B: j})
				}
			}
		}
	}
	tr.end(sp)
	c.surePairs = left.Len() * r.right.Len()
	c.sureHits = sure.Len()

	a0 := allocIf(tr)
	sp = tr.start("block", parent, op)
	blocked, err := block.UnionBlockCtx(ctx, left, r.right, wf.Blockers...)
	if err != nil {
		return nil, c, err
	}
	cand, err := blocked.Minus(sure)
	if err != nil {
		return nil, c, err
	}
	tr.end(sp)
	c.blockAlloc = allocIf(tr) - a0
	c.blocked = blocked.Len()
	pairs := cand.Pairs()
	c.pairs = len(pairs)

	learned := block.NewCandidateSet(left, r.right)
	if len(pairs) > 0 {
		a0 = allocIf(tr)
		sp = tr.start("feature.vectorize", parent, op)
		x, err := wf.Features.VectorizeCtx(ctx, left, r.right, pairs)
		tr.end(sp)
		c.vecAlloc = allocIf(tr) - a0
		if err != nil {
			return nil, c, err
		}
		sp = tr.start("feature.impute", parent, op)
		x, err = wf.Imputer.Transform(x)
		tr.end(sp)
		if err != nil {
			return nil, c, err
		}
		sp = tr.start("ml.predict", parent, op)
		preds, err := ml.PredictAllCtx(ctx, wf.Matcher, x)
		tr.end(sp)
		if err != nil {
			return nil, c, err
		}
		c.predictions = len(preds)
		for i, p := range pairs {
			if preds[i] == 1 {
				learned.Add(p)
			}
		}
		c.positives = learned.Len()
	}

	kept := learned
	if learned.Len() > 0 {
		sp = tr.start("rules.veto", parent, op)
		kept, c.vetoed = wf.NegativeRules.FilterMatches(learned)
		tr.end(sp)
	}
	final, err := sure.Union(kept)
	if err != nil {
		return nil, c, err
	}
	c.final = final.Len()
	out := make(answers, left.Len())
	for _, p := range final.Sorted() {
		out[p.A] = append(out[p.A], r.rightIDs[p.B])
	}
	for _, ids := range out {
		sort.Strings(ids)
	}
	return out, c, nil
}

// allocIf reads the heap allocation counter when tracing; the untraced
// replay skips the read so it times the layers alone.
func allocIf(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	return heapAllocBytes()
}

// layerReport turns a traced replay into per-operation layer metrics.
// ops is how many operations (requests, passes or jobs) were replayed.
func layerReport(tr *tracer, c layerCounts, ops int, m metricSet) {
	self := tr.selfTimes()
	per := func(name string) float64 { return ms(self[name]) / float64(ops) }
	n := float64(ops)
	m.set("serve.decode_ms", per("serve.decode"), "ms")
	m.set("rules.sure_ms", per("rules.sure"), "ms")
	m.set("rules.sure_pairs", float64(c.surePairs)/n, "count")
	m.set("rules.sure_hit_ratio", ratio(c.sureHits, c.surePairs), "ratio")
	m.set("block.ms", per("block"), "ms")
	m.set("block.alloc_mb", float64(c.blockAlloc)/n/(1<<20), "MB")
	m.set("block.candidates", float64(c.blocked)/n, "count")
	m.set("block.yield", ratio(c.final, c.blocked), "ratio")
	m.set("feature.vectorize_ms", per("feature.vectorize"), "ms")
	m.set("feature.pairs", float64(c.pairs)/n, "count")
	m.set("feature.ns_per_pair", ratio(int(self["feature.vectorize"]), c.pairs), "ns")
	m.set("feature.alloc_b_per_pair", ratio(int(c.vecAlloc), c.pairs), "B")
	m.set("feature.impute_ms", per("feature.impute"), "ms")
	m.set("ml.predict_ms", per("ml.predict"), "ms")
	m.set("ml.predictions", float64(c.predictions)/n, "count")
	m.set("ml.positive_ratio", ratio(c.positives, c.predictions), "ratio")
	m.set("rules.veto_ms", per("rules.veto"), "ms")
	m.set("rules.vetoed", float64(c.vetoed)/n, "count")
	m.set("ckpt.write_ms", per("ckpt.write"), "ms")
	m.set("bench.replay_self_ms", per("op"), "ms")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkReplay compares replayed answers with the served ones.
func checkReplay(t *tally, got, want answers) {
	for i := range want {
		t.add(outcome{status: 200, got: got[i], want: want[i]})
	}
}

// alternate runs op untraced and traced for each of n operations,
// swapping which goes first on every operation so drift in machine
// speed falls on both sides alike. It returns the wall times of each.
func alternate(n int, op func(i int, traced bool) (float64, error)) (plain, traced []float64, err error) {
	for i := 0; i < n; i++ {
		first := i%2 == 1
		for _, t := range []bool{first, !first} {
			wall, err := op(i, t)
			if err != nil {
				return nil, nil, err
			}
			if t {
				traced = append(traced, wall)
			} else {
				plain = append(plain, wall)
			}
		}
	}
	return plain, traced, nil
}
