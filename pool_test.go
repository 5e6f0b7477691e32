package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/session"
)

// Pool-safety determinism tests: the object-reuse paths (task pool,
// graph pool, instance/frame recycling, workspace reuse) must never
// change a simulation result. Each test runs a job on a fresh session,
// whose workspaces are all created cold, and again on a pool whose
// workspaces other jobs have already dirtied, and requires identical
// output.

// dirtyPool returns a pool whose workspaces have run a job unlike the
// ones under test (another topology, load and the tardy-abort path), so
// a later job starts on recycled engines, tasks, graphs and instances.
func dirtyPool(t *testing.T, workers int) *session.Pool {
	t.Helper()
	pool := session.NewPool()
	t.Cleanup(pool.Close)
	cfg := BaselineConfig()
	cfg.Nodes = 12
	cfg.Horizon = 1500
	cfg.Load = 0.9
	cfg.TardyAbort = true
	sess := NewSessionWithBackend(pool)
	defer sess.Close()
	if _, err := sess.Run(context.Background(), Job{Config: cfg, Reps: 2 * workers},
		WithParallelism(workers)); err != nil {
		t.Fatal(err)
	}
	return pool
}

// checkWarm fails unless the pool served at least one lease from a
// recycled workspace since before was taken.
func checkWarm(t *testing.T, pool *session.Pool, before uint64) {
	t.Helper()
	if pool.PoolStats().WarmAcquires == before {
		t.Fatal("the run on the dirtied pool leased no recycled workspace")
	}
}

func TestPoolingBitIdenticalCombinedExperiment(t *testing.T) {
	opts := ExperimentOptions{Horizon: 3000, Reps: 2, Seed: 7}
	ctx := context.Background()
	cold := NewSession()
	defer cold.Close()
	fresh, err := cold.Experiment(ctx, "combined", opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := dirtyPool(t, 1)
	before := pool.PoolStats().WarmAcquires
	warm := NewSessionWithBackend(pool)
	defer warm.Close()
	reused, err := warm.Experiment(ctx, "combined", opts)
	if err != nil {
		t.Fatal(err)
	}
	checkWarm(t, pool, before)
	freshCSV := RenderCSV(fresh.Figure)
	reusedCSV := RenderCSV(reused.Figure)
	if freshCSV != reusedCSV {
		t.Fatalf("combined CSV differs on recycled workspaces:\nreused:\n%s\nfresh:\n%s",
			reusedCSV, freshCSV)
	}
	if freshCSV == "" {
		t.Fatal("combined experiment rendered an empty CSV")
	}
}

func TestPoolingBitIdenticalBurstScenario(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 15000
	sc, err := ScenarioPreset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	const reps, parallel = 3, 4
	ctx := context.Background()
	cold := NewSession(WithParallelism(parallel))
	defer cold.Close()
	fresh, err := cold.RunScenario(ctx, cfg, sc, reps)
	if err != nil {
		t.Fatal(err)
	}
	pool := dirtyPool(t, parallel)
	before := pool.PoolStats().WarmAcquires
	warm := NewSessionWithBackend(pool, WithParallelism(parallel))
	defer warm.Close()
	reused, err := warm.RunScenario(ctx, cfg, sc, reps)
	if err != nil {
		t.Fatal(err)
	}
	checkWarm(t, pool, before)
	var freshCSV, reusedCSV strings.Builder
	if err := fresh.Series.WriteCSV(&freshCSV); err != nil {
		t.Fatal(err)
	}
	if err := reused.Series.WriteCSV(&reusedCSV); err != nil {
		t.Fatal(err)
	}
	if freshCSV.String() != reusedCSV.String() {
		t.Fatal("burst scenario time-series CSV differs on recycled workspaces")
	}
	if fresh.GlobalMD != reused.GlobalMD || fresh.LocalMD != reused.LocalMD {
		t.Fatalf("miss estimates differ on recycled workspaces: %+v vs %+v",
			reused.GlobalMD, fresh.GlobalMD)
	}
}

// TestPoolingAbortPathBitIdentical exercises the trickiest recycling
// path: aborted global instances whose already-queued sibling subtasks
// drain later, delaying instance and graph reuse. Run twice on the same
// dirtied workspace, so the second run also inherits the first one's
// abort-path leftovers, it must match a fresh workspace exactly.
func TestPoolingAbortPathBitIdentical(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 8000
	cfg.Load = 0.8
	cfg.TardyAbort = true
	cfg.SSP = "EQF"
	cfg.PSP = "DIV-1"
	cold := NewSession()
	defer cold.Close()
	fresh, err := runOne(cold, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.GlobalAborted == 0 {
		t.Fatal("the run aborted no global instance, so the abort path went untested")
	}
	pool := dirtyPool(t, 1)
	warm := NewSessionWithBackend(pool)
	defer warm.Close()
	for pass := 1; pass <= 2; pass++ {
		before := pool.PoolStats().WarmAcquires
		reused, err := runOne(warm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkWarm(t, pool, before)
		if simSig(reused) != simSig(fresh) {
			t.Fatalf("pass %d: abort-path metrics differ on a recycled workspace:\nreused %s\nfresh  %s",
				pass, simSig(reused), simSig(fresh))
		}
	}
}

// TestPooledRunnerRaceHammer drives the pooled parallel runner hard so
// `go test -race` can catch any cross-worker sharing of pooled state:
// workspaces are strictly per-worker, so there must be none. It also
// checks the fan-out still matches the sequential path bit for bit.
func TestPooledRunnerRaceHammer(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 1500
	const reps = 16
	sess := NewSession()
	defer sess.Close()
	ctx := context.Background()
	job := Job{Config: cfg, Reps: reps}
	seq, err := sess.Run(ctx, job, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		par, err := sess.Run(ctx, job, WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		if par.LocalMD != seq.LocalMD || par.GlobalMD != seq.GlobalMD {
			t.Fatalf("round %d: parallel pooled estimates diverge from sequential: %+v vs %+v",
				round, par.GlobalMD, seq.GlobalMD)
		}
		for i := range par.Runs {
			if par.Runs[i].LocalDone != seq.Runs[i].LocalDone ||
				par.Runs[i].GlobalDone != seq.Runs[i].GlobalDone {
				t.Fatalf("round %d: replication %d differs across worker counts", round, i)
			}
		}
	}
}
