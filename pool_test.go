package repro

import (
	"context"
	"strings"
	"testing"
)

// Pool-safety determinism tests: the object-reuse fast paths (task pool,
// graph pool, instance/frame recycling, workspace reuse) must never
// change a simulation result. Each test runs the same experiment twice —
// pooling on (the default) and DisablePooling (the pure allocation
// reference path) — and requires byte-identical rendered output.

func TestPoolingBitIdenticalCombinedExperiment(t *testing.T) {
	opts := ExperimentOptions{Horizon: 3000, Reps: 2, Seed: 7}
	pooled, err := RunExperiment("combined", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisablePooling = true
	ref, err := RunExperiment("combined", opts)
	if err != nil {
		t.Fatal(err)
	}
	pooledCSV := RenderCSV(pooled.Figure)
	refCSV := RenderCSV(ref.Figure)
	if pooledCSV != refCSV {
		t.Fatalf("combined CSV differs with pooling on vs off:\npooled:\n%s\nreference:\n%s",
			pooledCSV, refCSV)
	}
	if pooledCSV == "" {
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
	sess := NewSession(WithParallelism(parallel))
	defer sess.Close()
	ctx := context.Background()
	pooled, err := sess.RunScenario(ctx, cfg, sc, reps)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePooling = true
	ref, err := sess.RunScenario(ctx, cfg, sc, reps)
	if err != nil {
		t.Fatal(err)
	}
	var pooledCSV, refCSV strings.Builder
	if err := pooled.Series.WriteCSV(&pooledCSV); err != nil {
		t.Fatal(err)
	}
	if err := ref.Series.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}
	if pooledCSV.String() != refCSV.String() {
		t.Fatal("burst scenario time-series CSV differs with pooling on vs off")
	}
	if pooled.GlobalMD != ref.GlobalMD || pooled.LocalMD != ref.LocalMD {
		t.Fatalf("miss estimates differ with pooling on vs off: %+v vs %+v",
			pooled.GlobalMD, ref.GlobalMD)
	}
}

// TestPoolingAbortPathBitIdentical exercises the trickiest recycling
// path: aborted global instances whose already-queued sibling subtasks
// drain later, delaying instance and graph reuse. The run must match the
// reference path exactly.
func TestPoolingAbortPathBitIdentical(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 8000
	cfg.Load = 0.8
	cfg.TardyAbort = true
	cfg.SSP = "EQF"
	cfg.PSP = "DIV-1"
	sess := NewSession()
	defer sess.Close()
	pooled, err := runOne(sess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePooling = true
	ref, err := runOne(sess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.GlobalDone != ref.GlobalDone || pooled.GlobalAborted != ref.GlobalAborted ||
		pooled.LocalDone != ref.LocalDone || pooled.LocalAborted != ref.LocalAborted ||
		pooled.MDGlobal() != ref.MDGlobal() || pooled.MDLocal() != ref.MDLocal() {
		t.Fatalf("abort-path metrics differ with pooling on vs off:\npooled %+v\nref    %+v",
			pooled, ref)
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
