package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/netdist"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/system"
)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	draw := func(seed uint64) ([]query, []query, []query) {
		m := newMix(seed)
		pre := m.prefill()
		open := m.openLoop(openRate, 5*time.Second)
		var closed []query
		for range 150 {
			closed = append(closed, m.next())
		}
		return pre, open, closed
	}
	p1, o1, c1 := draw(7)
	p2, o2, c2 := draw(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("same seed drew different schedules")
	}
	_, o3, _ := draw(8)
	if reflect.DeepEqual(o1, o3) {
		t.Fatal("seeds 7 and 8 drew the same open-loop schedule")
	}
	if len(o1) < 100 {
		t.Fatalf("open loop of 5 s at %g/s has only %d queries", openRate, len(o1))
	}
}

func TestScheduleCompositionIndependentOfSeed(t *testing.T) {
	count := func(seed uint64) map[string]int {
		m := newMix(seed)
		m.prefill()
		c := map[string]int{}
		for range blockSize {
			q := m.next()
			c[fmt.Sprintf("%s/%s/%g/%v/%s", q.Spec.SSP, q.Spec.PSP, q.Spec.Load, q.CSV, q.Kind)]++
		}
		return c
	}
	a, b := count(1), count(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("block composition depends on the seed:\n%v\n%v", a, b)
	}
	kinds := map[string]int{}
	m := newMix(1)
	m.prefill()
	for range blockSize {
		q := m.next()
		k := q.Kind
		if q.CSV {
			k = "csv " + k
		}
		kinds[k]++
	}
	want := map[string]int{"repeat": 70, "overlap": 10, "fresh": 10, "csv fresh": 10}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("block of %d holds %v, want %v", blockSize, kinds, want)
	}
}

// An overlap starts before an earlier window of its design point and
// ends inside it, so its first replication misses and its last hits.
func TestOverlapHasColdHead(t *testing.T) {
	m := newMix(3)
	cached := map[string]map[uint64]bool{}
	add := func(q query) {
		key := fmt.Sprintf("%+v", netdist.JobSpec{Preset: q.Spec.Preset, Nodes: q.Spec.Nodes, Horizon: q.Spec.Horizon, Load: q.Spec.Load, SSP: q.Spec.SSP, PSP: q.Spec.PSP})
		if cached[key] == nil {
			cached[key] = map[uint64]bool{}
		}
		first, last := q.Spec.Seed, q.Spec.Seed+uint64(q.Spec.Reps-1)
		if q.Kind == "overlap" && (cached[key][first] || !cached[key][last]) {
			t.Fatalf("overlap %d: first seed cached %v, last seed cached %v", q.ID, cached[key][first], cached[key][last])
		}
		for s := first; s <= last; s++ {
			cached[key][s] = true
		}
	}
	for _, q := range m.prefill() {
		add(q)
	}
	for range 5 * blockSize {
		add(m.next())
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
		ok   bool
	}{
		{100, 0.9, 10, true},
		{99, 0.9, 9, false},
		{150, 0.9, 15, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.9, 0, false},
	} {
		if got := beyond(c.n, c.q); got != c.want || tailOK(c.n, c.q) != c.ok {
			t.Errorf("beyond(%d, %g) = %d ok=%v, want %d ok=%v", c.n, c.q, got, tailOK(c.n, c.q), c.want, c.ok)
		}
	}
	if q := highestTail(100); q != 0.9 || !tailOK(100, q) {
		t.Errorf("highestTail(100) = %g", q)
	}
	if q := highestTail(10); q != 0 {
		t.Errorf("highestTail(10) = %g, want 0", q)
	}
	if got := quantile([]float64{4, 1, 3, 2, 5}, 0.5); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := quantile([]float64{1, 2}, 0.9); got != 1.9 {
		t.Errorf("p90 of {1,2} = %g", got)
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(id, parent uint64, start, end int) span {
		return span{ID: id, Parent: parent, Start: time.Duration(start), End: time.Duration(end)}
	}
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 30),
		sp(3, 1, 20, 50),  // overlaps 2: the union counts once
		sp(4, 1, 60, 70),  // disjoint
		sp(5, 1, 95, 120), // runs past its parent: clipped to 95..100
		sp(6, 2, 12, 28),  // grandchild: covered by 2, not by 1 directly
		sp(7, 0, 0, 10),   // another root, no children
	}
	spans = append(spans, span{ID: 8, Start: 0, End: 40, Inner: 15})
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{
		1: 100 - (40 + 10 + 5),
		2: 20 - 16,
		3: 30,
		5: 25,
		6: 16,
		7: 10,
		8: 25,
	} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	// Inner larger than the span floors at zero.
	if s := selfTimes([]span{{ID: 1, End: 5, Inner: 9}}); s[1] != 0 {
		t.Errorf("negative self time %d", s[1])
	}
}

// encodeResult renders everything a job result carries that a client
// could see: per-replication metrics (gob, exact float bits), seeds,
// estimates and the merged series.
func encodeResult(t *testing.T, res *session.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Runs  []*system.Metrics
		Seeds []uint64
		MD    [4]float64
	}{res.Runs, res.Seeds, [4]float64{res.LocalMD.Mean, res.LocalMD.HalfCI, res.GlobalMD.Mean, res.GlobalMD.HalfCI}}); err != nil {
		t.Fatal(err)
	}
	if res.Series != nil {
		if err := res.Series.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestWrappersAreTransparent(t *testing.T) {
	ctx := context.Background()
	cfg := system.Baseline()
	cfg.Horizon, cfg.Nodes, cfg.Seed = 300, 16, 11
	sc, err := scenario.Preset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	job := session.Job{Config: cfg, Scenario: sc, Reps: 4}

	run := func(b session.Backend) []byte {
		sess := session.NewWithBackend(b, session.WithParallelism(2))
		defer sess.Close()
		var out []byte
		// Twice, so the cache stack serves the second run from cache.
		for range 2 {
			res, err := sess.Run(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, encodeResult(t, res)...)
		}
		return out
	}
	rec := newRecorder()
	plain := run(session.NewPool())
	pool := &spanBackend{name: "pool", inner: session.NewPool(), rec: rec}
	if got := run(pool); !bytes.Equal(got, plain) {
		t.Fatal("pool wrapper changed the result")
	}
	if pool.tally().Reps != 8 || len(spansNamed(rec.all(), "pool")) != 2 {
		t.Fatalf("pool wrapper tallied %+v over %d spans", pool.tally(), len(rec.all()))
	}
	net := &spanBackend{name: "net", inner: session.NewPool(), rec: rec}
	stack := &spanBackend{name: "cache", inner: netdist.NewCache(net, 1<<20), rec: rec}
	if got := run(stack); !bytes.Equal(got, plain) {
		t.Fatal("cache stack with wrappers changed the result")
	}
	if n := net.tally().Reps; n != 4 {
		t.Fatalf("inner layer ran %d reps, want 4 (second run from cache)", n)
	}
	var snap = session.NewWithBackend(stack).Snapshot()
	if snap.Cache == nil || snap.Cache.Hits != 4 {
		t.Fatalf("cache facet not visible through the wrapper: %+v", snap.Cache)
	}
}
