package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/session"
)

// setupRounds is how many times each workload sets up from scratch;
// setup_s reports the median and the last set-up is the one measured.
const setupRounds = 3

// nproc is the parallelism of every workload: one worker per core.
var nproc = runtime.NumCPU()

// jobSeed derives the base seed of job i from the run seed (splitmix64),
// kept below 2^40 so no replication range wraps.
func jobSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z&(1<<40-1) + 1
}

// batchSession is a session on its own in-process pool, with the
// pool-seam span wrapper when the phase is traced.
type batchSession struct {
	sess *repro.Session
	pool *session.Pool
	wrap *spanBackend // nil when untraced
}

func (b *batchSession) close() {
	_ = b.sess.Close()
	b.pool.Close()
}

// setupBatch builds a session on a fresh pool and runs warm until its
// workspaces exist, setupRounds times, and returns the last session.
// Each set-up's duration and checks are recorded in r.
func setupBatch(ctx context.Context, o opts, r *result, warm repro.Job) (*batchSession, error) {
	var b *batchSession
	for round := 0; round < setupRounds; round++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		b = &batchSession{pool: session.NewPool()}
		var backend session.Backend = b.pool
		if o.rec != nil {
			b.wrap = &spanBackend{name: "pool", inner: b.pool, rec: o.rec}
			backend = b.wrap
		}
		b.sess = repro.NewSessionWithBackend(backend, repro.WithParallelism(nproc))
		res, err := b.sess.Run(ctx, warm)
		r.setups = append(r.setups, time.Since(t0))
		if err != nil {
			b.close()
			return nil, fmt.Errorf("set-up job: %w", err)
		}
		r.attempted++
		r.check(!res.Partial && len(res.Runs) == warm.Reps, "set-up job returned %d of %d reps", len(res.Runs), warm.Reps)
	}
	return b, nil
}

// batchJob runs job i under ctx, calling first once its first result
// (replication or sweep cell) is in.
type batchJob func(ctx context.Context, i int, first func()) error

// runBatchLoop runs jobs back to back — a closed loop of one client —
// until the window has passed and at least windowJobs jobs finished.
// atWindow runs right after job windowJobs-1, where the exact counts
// are taken. It returns the session snapshots at the loop's start and
// end.
func runBatchLoop(ctx context.Context, o opts, r *result, b *batchSession, windowJobs int, job batchJob, atWindow func()) (s0, s1 obs.Snapshot) {
	heap := startHeapSampler(10 * time.Millisecond)
	gc0 := gcCycles()
	s0 = b.sess.Snapshot()
	before := s0.Engine.TasksSubmitted
	var tasks []uint64 // per job
	start := time.Now()
	due := start
	for i := 0; i < windowJobs || time.Since(start) < o.window; i++ {
		begin := time.Now()
		var firstNS atomic.Int64
		first := func() { firstNS.CompareAndSwap(0, int64(time.Since(due))) }
		jctx, end := o.rec.start(withQuery(ctx, uint64(i+1)), "job")
		r.attempted++
		err := job(jctx, i, first)
		end(0)
		doneAt := time.Now()
		r.check(err == nil, "job %d: %v", i, err)
		if firstNS.Load() == 0 {
			first()
		}
		r.samples = append(r.samples, sample{
			at:    due.Sub(start),
			first: time.Duration(firstNS.Load()),
			done:  doneAt.Sub(due),
			lag:   begin.Sub(due),
		})
		after := b.sess.Snapshot().Engine.TasksSubmitted
		tasks = append(tasks, after-before)
		before = after
		if i+1 == windowJobs {
			atWindow()
		}
		due = doneAt
	}
	s1 = b.sess.Snapshot()
	r.peakHeap = heap.Stop()
	r.gcCycles = gcCycles() - gc0
	// Jobs run back to back, so a segment's wall time is the sum of its
	// jobs' due-to-done times.
	wall := due.Sub(start)
	r.rates = make([]rate, segments)
	for i, s := range r.samples {
		seg := &r.rates[min(int(int64(s.at)*segments/int64(wall)), segments-1)]
		seg.tasks += tasks[i]
		seg.ops++
		seg.wall += s.done
	}
	r.latSegments = 1
	return s0, s1
}

// windowCounts records the exact counts at the end of the digest
// window: the session's engine totals (set-up job plus window jobs) and,
// when traced, the arrivals the pool-seam wrapper saw.
func windowCounts(r *result, b *batchSession) {
	snap := b.sess.Snapshot()
	r.check(engineOK(snap.Engine), "engine invariant: completed %d + aborted %d > submitted %d",
		snap.Engine.TasksCompleted, snap.Engine.TasksAborted, snap.Engine.TasksSubmitted)
	r.counts = engineCounts(snap.Engine)
	if b.wrap != nil {
		r.counts["workload.arrivals"] = float64(b.wrap.tally().Arrivals)
	}
}

// batchLayers derives the session, system and sim per-layer metrics of
// a traced batch phase from the pool gauges and the recorded spans.
func batchLayers(r *result, s0, s1 obs.Snapshot) {
	busy := s1.Session.Pool.BusySeconds - s0.Session.Pool.BusySeconds
	reps := s1.Session.ReplicationsCompleted - s0.Session.ReplicationsCompleted
	tasks := s1.Engine.TasksSubmitted - s0.Engine.TasksSubmitted
	events := s1.Engine.EventsFired - s0.Engine.EventsFired
	pool := s1.Session.Pool
	spans := r.rec.all()
	jobs := spansNamed(spans, "job")
	self := selfTimes(spans)
	r.layer = map[string]float64{
		"session.job_ms":      medianMS(jobs),
		"session.self_ms":     medianSelfMS(jobs, self),
		"session.rep_busy_ms": 1e3 * busy / float64(max(reps, 1)),
		"session.warm_ratio":  float64(pool.WarmAcquires) / float64(max(pool.WarmAcquires+pool.ColdAcquires, 1)),
		"system.ns_per_task":  1e9 * busy / float64(max(tasks, 1)),
		"sim.ns_per_event":    1e9 * busy / float64(max(events, 1)),
	}
}
