package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTallyCountsEveryKindOfFailure(t *testing.T) {
	want := []string{"s1", "s2"}
	var tl tally
	cases := []struct {
		name string
		o    outcome
		ok   bool
	}{
		{"right answer", outcome{status: 200, got: []string{"s1", "s2"}, want: want}, true},
		{"wrong answer", outcome{status: 200, got: []string{"s1"}, want: want}, false},
		{"non-200", outcome{status: 500, got: want, want: want}, false},
		{"shed", outcome{status: 429, want: want}, false},
		{"degraded", outcome{status: 200, degraded: true, got: want, want: want}, false},
		{"transport error", outcome{err: errors.New("connection reset"), want: want}, false},
	}
	for _, c := range cases {
		if got := tl.add(c.o); got != c.ok {
			t.Errorf("%s: add = %v, want %v", c.name, got, c.ok)
		}
	}
	if tl.attempted != len(cases) || tl.failed != len(cases)-1 {
		t.Fatalf("attempted %d failed %d, want %d and %d", tl.attempted, tl.failed, len(cases), len(cases)-1)
	}
}

func TestQuantileNeverExceedsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 400; n += 7 {
		xs := make([]float64, n)
		max := 0.0
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 20
			if xs[i] > max {
				max = xs[i]
			}
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			v := quantile(append([]float64(nil), xs...), q)
			if v > max {
				t.Fatalf("n=%d q=%v: quantile %v above max %v", n, q, v, max)
			}
			found := false
			for _, x := range xs {
				found = found || x == v
			}
			if !found {
				t.Fatalf("n=%d q=%v: quantile %v is not an observed sample", n, q, v)
			}
		}
		l := &latencies{}
		for _, x := range xs {
			l.add(time.Duration(x * float64(time.Millisecond)))
		}
		if s := l.summary(); s.n != n || s.p50 > s.max || s.p90 > s.max || s.p95 > s.max || s.p99 > s.max {
			t.Fatalf("n=%d: summary %+v", n, s)
		}
	}
}

func TestSeedMovesScheduleAndPicksButNotTables(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(1)), 20, 10*time.Second, 1336)
	b := poissonSchedule(rand.New(rand.NewSource(2)), 20, 10*time.Second, 1336)
	again := poissonSchedule(rand.New(rand.NewSource(1)), 20, 10*time.Second, 1336)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed gave different schedules")
	}
	sameDue, samePick := true, true
	for i := 0; i < len(a) && i < len(b); i++ {
		sameDue = sameDue && a[i].due == b[i].due
		samePick = samePick && a[i].row == b[i].row
	}
	if sameDue || samePick {
		t.Fatalf("seeds 1 and 2 share due times (%v) or record picks (%v)", sameDue, samePick)
	}

	// Tables are generated without the benchmark seed: two preparations
	// write identical bytes.
	var files [2][2][]byte
	for i := range files {
		tp, err := writeTables(t.TempDir(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range []string{tp.left, tp.right} {
			if files[i][j], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j := range files[0] {
		if !bytes.Equal(files[0][j], files[1][j]) {
			t.Fatalf("table %d differs between two preparations", j)
		}
	}
}

func TestPinnedReferenceRejectsChangedAnswers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := os.WriteFile(path, []byte(`{"1": {"matches": 2, "digest": "abc"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkPinned(path, 1.0, pinned{Matches: 2, Digest: "abc"}); err != nil {
		t.Fatalf("matching reference rejected: %v", err)
	}
	for _, p := range []pinned{{2, "abd"}, {3, "abc"}} {
		if err := checkPinned(path, 1.0, p); err == nil {
			t.Fatalf("changed reference %+v accepted", p)
		}
	}
	if err := checkPinned(path, 2.0, pinned{Matches: 2, Digest: "abc"}); err == nil {
		t.Fatal("reference for an unpinned scale accepted")
	}
}

func TestConformToDeclaredMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	decl := `{"end_to_end": [{"name": "p50_ms", "unit": "ms"}], "per_layer": [{"name": "block.ms", "unit": "ms"}, {"name": "ckpt.bytes", "unit": "B"}]}`
	if err := os.WriteFile(path, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := conform(path, false, metricSet{}); err == nil {
		t.Fatal("a missing end-to-end metric was accepted")
	}
	if err := conform(path, false, metricSet{"p50_ms": {1, "s"}}); err == nil {
		t.Fatal("a wrong unit was accepted")
	}
	if err := conform(path, false, metricSet{"p50_ms": {1, "ms"}, "extra": {1, "ms"}}); err == nil {
		t.Fatal("an undeclared metric was accepted")
	}
	m := metricSet{"block.ms": {3, "ms"}}
	if err := conform(path, true, m); err != nil {
		t.Fatal(err)
	}
	if got := m["ckpt.bytes"]; got != (metricVal{0, "B"}) {
		t.Fatalf("absent per-layer metric reported as %+v, want 0 B", got)
	}
}
