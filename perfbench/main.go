// Command perfbench is the repository benchmark. It runs one named
// workload through the reproduction's public run layers — session,
// system, netdist and distrib — checks every output, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, as one
// JSON object on the last line of standard output.
//
//	go run . -workload paper-grid -seed 1 -seconds 30 -trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	paper-grid  Session.Experiment over fig2b, fig4 and combined at 6 nodes
//	burst-1024  Session.Run of the burst preset at 1024 nodes, 8 reps
//	serve-mix   open-loop then closed-loop POST /run against
//	            Service → Cache → NetBackend → TCP worker server
//
// All timing is taken outside the program, around public calls. With
// -trace 1 the workload runs twice from a fresh set-up: untraced, then
// with pass-through session.Backend wrappers recording spans at the
// layer seams; the difference is reported as trace.overhead_pct and the
// spans are written to -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input.
type workload struct {
	name string
	// batch workloads report tasks_per_s for trace.overhead_pct; the
	// service workload reports query_ms_p50.
	batch bool
	run   func(ctx context.Context, o opts) (*result, error)
}

var workloads = []workload{
	{name: "paper-grid", batch: true, run: runPaperGrid},
	{name: "burst-1024", batch: true, run: runBurst},
	{name: "serve-mix", run: runServeMix},
}

// opts is what every workload receives: the seed its inputs are drawn
// from, how long to measure, and the span recorder (nil when untraced).
type opts struct {
	seed   uint64
	window time.Duration
	rec    *recorder
}

// segments is how many equal parts of a measured loop the throughput
// figures (and serve-mix's latency quantiles) are computed over; the
// run reports the median across parts, so a transient stall on a shared
// machine moves one part rather than the figure.
const segments = 5

// sample is one operation's timing: at is when it was due, from the
// start of the loop; first is due time to first result, done is due time
// to final result, lag is how late the generator issued it. kind is the
// serve-mix query kind ("repeat", "overlap", "fresh" or "csv"), empty
// for a batch job.
type sample struct {
	at, first, done, lag time.Duration
	kind                 string
}

// streams reports whether the operation delivers results before it
// ends. A CSV body is written only once the whole run is merged, so its
// first byte comes at its end; time to first line covers the others.
func (s sample) streams() bool { return s.kind != "csv" }

func all(sample) bool { return true }

// rate is the work one segment of a loop completed.
type rate struct {
	tasks uint64 // simulated (batch) or served (serve-mix) tasks
	ops   int
	wall  time.Duration
}

// result is one measured phase of a workload.
type result struct {
	setups  []time.Duration
	samples []sample
	// latSegments is how many equal parts of latSpan the latency
	// quantiles are taken over (1 = pooled).
	latSegments int
	latSpan     time.Duration
	// rates are the segments of the throughput loop: the job loop, or
	// the service's closed loop.
	rates []rate

	peakHeap  uint64
	gcCycles  uint64
	attempted int
	failed    int
	problems  []string

	// digest hashes the workload's deterministic output; counts are the
	// exact engine and workload counts at the end of the digest window.
	digest string
	counts map[string]float64
	// layer holds workload-specific per-layer metrics (traced phase).
	layer map[string]float64
	rec   *recorder
}

// check counts one output check: a false ok is a failed operation.
func (r *result) check(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return false
}

// metricDef is one reported metric, in BENCHMARK.json order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"ttfl_ms_p50", "ms"},
	{"ttfl_ms_p90", "ms"},
	{"query_ms_p50", "ms"},
	{"query_ms_p90", "ms"},
	{"capacity_qps", "1/s"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"session.job_ms", "ms"},
	{"session.self_ms", "ms"},
	{"session.rep_busy_ms", "ms"},
	{"session.warm_ratio", "ratio"},
	{"system.tasks", "count"},
	{"system.ns_per_task", "ns"},
	{"sim.events_fired", "count"},
	{"sim.events_per_task", "ratio"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_hwm", "count"},
	{"sim.queue_promotions", "count"},
	{"sim.cancel_ratio", "ratio"},
	{"workload.arrivals", "count"},
	{"sched.ready_hwm", "count"},
	{"node.abort_ratio", "ratio"},
	{"node.preemptions", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.self_ms", "ms"},
	{"cache.bytes", "bytes"},
	{"cache.evictions", "count"},
	{"net.shard_ms", "ms"},
	{"net.self_ms", "ms"},
	{"net.bytes_per_rep", "bytes"},
	{"net.frames_per_rep", "count"},
	{"distrib.retries", "count"},
	{"distrib.hedges_lost", "count"},
	{"distrib.merge_depth_hwm", "count"},
	{"service.self_ms", "ms"},
	{"loadgen.lag_ms_p90", "ms"},
	{"loadgen.ops", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper-grid, burst-1024 or serve-mix")
		seed    = fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = fs.Float64("seconds", 30, "measurement window per phase, in seconds")
		trace   = fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
		out     = fs.String("out", ".bench_build/perfbench-out", "directory for output digests and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (paper-grid, burst-1024, serve-mix), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx := context.Background()
	o := opts{seed: *seed, window: time.Duration(*seconds * float64(time.Second))}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		wl.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	base, err := wl.run(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	phases := []*result{base}
	var traced *result
	if *trace == 1 {
		o.rec = newRecorder()
		if traced, err = wl.run(ctx, o); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", wl.name, err)
			return 1
		}
		phases = append(phases, traced)
	}

	attempted, failed := 0, 0
	for i, r := range phases {
		attempted += r.attempted
		failed += r.failed
		mode := []string{"untraced", "traced"}[i]
		ok, note, err := checkDigest(*out, wl.name, *seed, *seconds, mode, r)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: digest record:", err)
			return 1
		}
		attempted++
		if !ok {
			failed++
		}
		fmt.Fprintf(stdout, "  digest(%s) %s %s\n", mode, r.digest, note)
		for _, p := range r.problems {
			fmt.Fprintf(stderr, "perfbench: FAILED CHECK (%s): %s\n", mode, p)
		}
	}

	e2e := endToEndMetrics(base)
	printEndToEnd(stdout, wl, base, e2e)
	fmt.Fprintf(stdout, "  %-22s %-12.6g ratio  (%d failed of %d attempted)\n", "fail_ratio",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)

	metrics := e2e
	defs := endToEnd
	if traced != nil {
		metrics = layerMetrics(wl, base, traced)
		defs = perLayer
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		if err := traced.rec.dump(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: span dump:", err)
			return 1
		}
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "  %-24s %-14.6g %s\n", d.name, metrics[d.name], d.unit)
		}
		fmt.Fprintf(stdout, "  spans written to %s\n", path)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(defs))
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = value{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, m})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEndMetrics derives the user-visible metrics of one phase.
func endToEndMetrics(r *result) map[string]float64 {
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = secs(d)
	}
	var tput, capacity []float64
	for _, s := range r.rates {
		if s.wall <= 0 {
			continue
		}
		tput = append(tput, float64(s.tasks)/secs(s.wall))
		capacity = append(capacity, float64(s.ops)/secs(s.wall))
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"tasks_per_s":  median(tput),
		"ttfl_ms_p50":  r.latency(sample.streams, first, 0.5),
		"ttfl_ms_p90":  r.latency(sample.streams, first, 0.9),
		"query_ms_p50": r.latency(all, done, 0.5),
		"query_ms_p90": r.latency(all, done, 0.9),
		"capacity_qps": median(capacity),
		"peak_heap_mb": float64(r.peakHeap) / (1 << 20),
	}
}

func first(s sample) time.Duration { return s.first }
func done(s sample) time.Duration  { return s.done }

// latSegment splits the samples that keep accepts into the latSegments
// equal parts of latSpan by due time.
func (r *result) latSegment(keep func(sample) bool) [][]sample {
	parts := make([][]sample, max(r.latSegments, 1))
	for _, s := range r.samples {
		if !keep(s) {
			continue
		}
		k := 0
		if r.latSpan > 0 {
			k = min(int(int64(s.at)*int64(len(parts))/int64(r.latSpan)), len(parts)-1)
		}
		parts[k] = append(parts[k], s)
	}
	return parts
}

// latency is the median across latency segments of each segment's
// q-quantile of pick over the samples keep accepts, in milliseconds.
func (r *result) latency(keep func(sample) bool, pick func(sample) time.Duration, q float64) float64 {
	var per []float64
	for _, part := range r.latSegment(keep) {
		xs := make([]float64, len(part))
		for i, s := range part {
			xs[i] = ms(pick(s))
		}
		per = append(per, quantile(xs, q))
	}
	return median(per)
}

// printEndToEnd prints every end-to-end metric with its unit and sample
// count. On the batch workloads a query is one job, so the job_s names
// the metrics also go by are shown alongside. On serve-mix each query
// kind's own quantiles follow, to show which kind sets each percentile.
func printEndToEnd(w io.Writer, wl *workload, r *result, e map[string]float64) {
	// counted describes the samples keep accepts and returns the size
	// of the smallest latency segment.
	counted := func(keep func(sample) bool) (string, int) {
		n, least := 0, len(r.samples)
		for _, part := range r.latSegment(keep) {
			n += len(part)
			least = min(least, len(part))
		}
		if r.latSegments > 1 {
			return fmt.Sprintf("n=%d; median of %d segments, each n>=%d", n, r.latSegments, least), least
		}
		return fmt.Sprintf("n=%d", n), least
	}
	ttfl, ttflLeast := counted(sample.streams)
	query, queryLeast := counted(all)
	if !wl.batch {
		ttfl += "; NDJSON queries only"
	}
	var tasks uint64
	ops, wall := 0, time.Duration(0)
	for _, s := range r.rates {
		tasks, ops, wall = tasks+s.tasks, ops+s.ops, wall+s.wall
	}
	loop := fmt.Sprintf("median of %d segments; %d tasks, %d ops in %.3f s", len(r.rates), tasks, ops, secs(wall))
	counts := map[string]string{
		"setup_s":      fmt.Sprintf("median of %d set-ups", len(r.setups)),
		"tasks_per_s":  loop,
		"ttfl_ms_p50":  ttfl,
		"ttfl_ms_p90":  fmt.Sprintf("%s, %d beyond p90", ttfl, beyond(ttflLeast, 0.9)),
		"query_ms_p50": query,
		"query_ms_p90": fmt.Sprintf("%s, %d beyond p90", query, beyond(queryLeast, 0.9)),
		"capacity_qps": loop,
		"peak_heap_mb": "HeapInuse sampled every 10 ms",
	}
	for _, d := range endToEnd {
		note := counts[d.name]
		if wl.batch && strings.HasPrefix(d.name, "query_ms_") {
			note += fmt.Sprintf("; job_s_%s = %.6g s", strings.TrimPrefix(d.name, "query_ms_"), e[d.name]/1000)
		}
		fmt.Fprintf(w, "  %-22s %-12.6g %-5s (%s)\n", d.name, e[d.name], d.unit, note)
	}
	if least := min(ttflLeast, queryLeast); !tailOK(least, 0.9) {
		fmt.Fprintf(w, "  WARNING: p90 has only %d samples beyond it (want %d); highest supported tail is p%.0f\n",
			beyond(least, 0.9), tailMinBeyond, 100*highestTail(least))
	}
	if wl.batch {
		return
	}
	for _, kind := range []string{"repeat", "overlap", "fresh", "csv"} {
		var firsts, dones []float64
		for _, s := range r.samples {
			if s.kind == kind {
				firsts, dones = append(firsts, ms(s.first)), append(dones, ms(s.done))
			}
		}
		fmt.Fprintf(w, "    %-8s n=%-5d first ms p50 %-8.4g p90 %-8.4g  final ms p50 %-8.4g p90 %-8.4g (pooled)\n", kind, len(dones),
			quantile(firsts, 0.5), quantile(firsts, 0.9), quantile(dones, 0.5), quantile(dones, 0.9))
	}
}

// layerMetrics assembles the per-layer metrics of a traced run: the
// workload's own layer metrics, the exact counts, and the load
// generator, runtime and tracing-overhead figures shared by all.
func layerMetrics(wl *workload, base, traced *result) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for k, v := range traced.counts {
		m[k] = v
	}
	for k, v := range traced.layer {
		m[k] = v
	}
	lags := make([]float64, len(traced.samples))
	for i, s := range traced.samples {
		lags[i] = ms(s.lag)
	}
	m["loadgen.lag_ms_p90"] = quantile(lags, 0.9)
	m["loadgen.ops"] = float64(len(traced.samples))
	m["runtime.gc_cycles"] = float64(traced.gcCycles)
	be, te := endToEndMetrics(base), endToEndMetrics(traced)
	if wl.batch {
		m["trace.overhead_pct"] = 100 * (be["tasks_per_s"] - te["tasks_per_s"]) / be["tasks_per_s"]
	} else {
		m["trace.overhead_pct"] = 100 * (te["query_ms_p50"] - be["query_ms_p50"]) / be["query_ms_p50"]
	}
	return m
}

// sortedKeys lists a map's keys in order (for stable digests).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
