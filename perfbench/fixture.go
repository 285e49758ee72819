package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"emgo/internal/serve"
	"emgo/internal/table"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// trainSeed is the case-study seed the deployed spec is trained with.
// It is fixed, not the benchmark seed: the spec and both table pairs are
// the same in every run, so the pinned reference in reference.json
// applies to every run and the benchmark seed moves only the arrival
// schedules and the record picks.
const trainSeed = 7

// dateKinds are the left/right columns read as dates, as emserve reads
// them.
var dateKinds = map[string]table.Kind{"FirstTransDate": table.Date, "LastTransDate": table.Date}

// tablePaths are the CSV files of one generated scale.
type tablePaths struct {
	scale       float64
	left, right string
}

// writeTables generates the projected UMETRICS (left) and USDA (right)
// matching tables at scale with the generator's fixed default seed and
// writes them as CSV under dir. The benchmark seed never reaches here.
func writeTables(dir string, scale float64) (tablePaths, error) {
	tp := tablePaths{
		scale: scale,
		left:  filepath.Join(dir, fmt.Sprintf("scale-%g", scale), "left.csv"),
		right: filepath.Join(dir, fmt.Sprintf("scale-%g", scale), "right.csv"),
	}
	ds, err := umetrics.Generate(umetrics.TestParams(scale))
	if err != nil {
		return tp, fmt.Errorf("generate scale %g: %w", scale, err)
	}
	proj, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		return tp, fmt.Errorf("preprocess scale %g: %w", scale, err)
	}
	if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
		return tp, fmt.Errorf("project numbers scale %g: %w", scale, err)
	}
	if err := proj.UMETRICS.WriteCSVFile(tp.left); err != nil {
		return tp, err
	}
	return tp, proj.USDA.WriteCSVFile(tp.right)
}

// trainedSpec returns the Figure 10 deployment spec the case study
// packages at scale 1.0 with trainSeed. Training takes seconds and is
// harness preparation, so the spec is cached under dir.
func trainedSpec(ctx context.Context, dir string) (*workflow.Spec, error) {
	path := filepath.Join(dir, fmt.Sprintf("spec-seed%d.json", trainSeed))
	if data, err := os.ReadFile(path); err == nil {
		return workflow.ParseSpec(data)
	}
	cfg := umetrics.DefaultConfig()
	cfg.Seed = trainSeed
	rep, err := umetrics.RunCtxStudy(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("train spec: %w", err)
	}
	data, err := rep.Deployment.Marshal()
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return rep.Deployment, nil
}

// tier says how much of the serving stack a deployment builds.
type tier int

const (
	tierBatch  tier = iota // tables + workflow
	tierOnline             // + serve.New
	tierJobs               // + serve.New with the job tier
)

// deployment is one constructed system under test.
type deployment struct {
	left, right *table.Table
	wf          *workflow.Workflow
	srv         *serve.Server // nil for tierBatch
	read        time.Duration // CSV read time
	total       time.Duration // whole construction time
}

// close stops the server's background workers, if any.
func (d *deployment) close() {
	if d.srv != nil {
		d.srv.Close()
	}
}

// deploy reads the CSVs, builds the spec, and, per tier, constructs the
// server — the set-up a production deployment pays. jobDir must be
// fresh for tierJobs.
func deploy(ctx context.Context, spec *workflow.Spec, tp tablePaths, t tier, jobDir string) (*deployment, error) {
	start := time.Now()
	left, err := table.ReadCSVFile(tp.left, dateKinds)
	if err != nil {
		return nil, err
	}
	right, err := table.ReadCSVFile(tp.right, dateKinds)
	if err != nil {
		return nil, err
	}
	d := &deployment{left: left, right: right, read: time.Since(start)}
	if d.wf, err = spec.Build(left, right, umetrics.DeployTransforms()); err != nil {
		return nil, err
	}
	if t >= tierOnline {
		cfg := serve.Config{}
		if t == tierJobs {
			cfg.Jobs = serve.JobConfig{Dir: jobDir}
		}
		if d.srv, err = serve.New(ctx, cfg, d.wf, left, right); err != nil {
			return nil, err
		}
	}
	d.total = time.Since(start)
	return d, nil
}

// setupPerRound is how many constructions a run times before its
// workload starts and again in each round of an untraced run. One
// construction varies by tens of percent and the machine's speed drifts
// over a run, so the samples are spread over the run, as the workload's
// phases are, and their median is reported.
const setupPerRound = 8

// setupTimer times constructions of one tier of deployment.
type setupTimer struct {
	spec      *workflow.Spec
	tp        tablePaths
	tier      tier
	newJobDir func() string // a fresh job directory per construction
	setupS    []float64     // whole constructions, seconds
	readMS    []float64     // their CSV reads, milliseconds
}

// sample times n constructions and closes each. Each starts from a
// collected heap, as a fresh process would, not from the previous
// construction's garbage.
func (st *setupTimer) sample(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		dir := ""
		if st.newJobDir != nil {
			dir = st.newJobDir()
		}
		runtime.GC()
		d, err := deploy(ctx, st.spec, st.tp, st.tier, dir)
		if err != nil {
			return err
		}
		d.close()
		st.setupS = append(st.setupS, d.total.Seconds())
		st.readMS = append(st.readMS, ms(d.read))
	}
	return nil
}

// timedSetup times setupPerRound constructions, then constructs the
// deployment the run uses. newJobDir supplies a fresh job directory per
// construction; it is nil below tierJobs.
func timedSetup(ctx context.Context, spec *workflow.Spec, tp tablePaths, t tier, newJobDir func() string) (*deployment, *setupTimer, error) {
	st := &setupTimer{spec: spec, tp: tp, tier: t, newJobDir: newJobDir}
	if err := st.sample(ctx, setupPerRound); err != nil {
		return nil, nil, err
	}
	dir := ""
	if newJobDir != nil {
		dir = newJobDir()
	}
	d, err := deploy(ctx, spec, tp, t, dir)
	return d, st, err
}

// checkedReference computes the RunCtx reference of a deployment and
// compares its digest with the pinned one; a mismatch counts as a
// failed operation, so the run reports correct=false.
func checkedReference(ctx context.Context, e *runEnv, d *deployment, scale float64) (answers, error) {
	ref, err := referenceAnswers(ctx, d.wf, d.left, d.right)
	if err != nil {
		return nil, err
	}
	pin, err := ref.summary(d.left)
	if err != nil {
		return nil, err
	}
	e.detail["reference"] = map[string]any{"scale": scale, "matches": pin.Matches, "digest": pin.Digest}
	e.tally.add(outcome{status: 200, err: checkPinned(pinnedFile, scale, pin)})
	return ref, nil
}

// answers maps each left row index to the sorted right IDs it matched.
type answers [][]string

// referenceAnswers runs workflow.RunCtx over the whole table pair — the
// batch path every served answer must agree with.
func referenceAnswers(ctx context.Context, wf *workflow.Workflow, left, right *table.Table) (answers, error) {
	res, err := wf.RunCtx(ctx, left, right, workflow.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return resultAnswers(res, left.Len())
}

// resultAnswers converts a workflow result to per-left-row answers.
func resultAnswers(res *workflow.Result, nLeft int) (answers, error) {
	rj, err := res.Final.Right.Col("RecordId")
	if err != nil {
		return nil, err
	}
	out := make(answers, nLeft)
	for _, p := range res.Final.Pairs() {
		out[p.A] = append(out[p.A], res.Final.Right.Row(p.B)[rj].Str())
	}
	for _, ids := range out {
		sort.Strings(ids)
	}
	return out, nil
}

// matchIDs returns the sorted right IDs of a served answer.
func matchIDs(ms []serve.Match) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.RightID
	}
	sort.Strings(ids)
	return ids
}

// sameIDs reports whether two sorted ID lists are equal.
func sameIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pinned is the recorded reference of one scale.
type pinned struct {
	Matches int    `json:"matches"`
	Digest  string `json:"digest"`
}

// summary is the match count and digest of a reference: the digest
// hashes one "leftID<TAB>rightID,rightID" line per left row, in row
// order.
func (a answers) summary(left *table.Table) (pinned, error) {
	lj, err := left.Col("RecordId")
	if err != nil {
		return pinned{}, err
	}
	h := sha256.New()
	n := 0
	for i, ids := range a {
		n += len(ids)
		fmt.Fprintf(h, "%s\t%s\n", left.Row(i)[lj].Str(), strings.Join(ids, ","))
	}
	return pinned{Matches: n, Digest: hex.EncodeToString(h.Sum(nil))}, nil
}

// checkPinned compares a reference against reference.json, which
// records the answers of the program this benchmark was written for: a
// change that alters any answer fails the run.
func checkPinned(pinnedPath string, scale float64, got pinned) error {
	data, err := os.ReadFile(pinnedPath)
	if err != nil {
		return err
	}
	var want map[string]pinned
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", pinnedPath, err)
	}
	w, ok := want[fmt.Sprintf("%g", scale)]
	if !ok {
		return fmt.Errorf("%s: no reference for scale %g", pinnedPath, scale)
	}
	if w != got {
		return fmt.Errorf("reference at scale %g has %d matches digest %s, pinned %d digest %s",
			scale, got.Matches, got.Digest, w.Matches, w.Digest)
	}
	return nil
}

// records renders every left row as a request record with every column;
// nulls are sent as JSON null.
func records(left *table.Table) []map[string]any {
	schema := left.Schema()
	out := make([]map[string]any, left.Len())
	for i := range out {
		rec := make(map[string]any, schema.Len())
		for j, v := range left.Row(i) {
			if v.IsNull() {
				rec[schema.Field(j).Name] = nil
			} else {
				rec[schema.Field(j).Name] = v.Str()
			}
		}
		out[i] = rec
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
