package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro"
	"repro/internal/scenario"
	"repro/internal/system"
)

// burst-1024: the reference scale run. Session.Run of the burst preset
// (3x arrivals for the middle 10% of the run) at 1024 nodes, 8 reps per
// job on the in-process pool. The horizon is short enough that a run
// holds over 100 jobs, so job_s_p90 has 10 samples beyond it.
const (
	burstNodes   = 1024
	burstHorizon = 80
	burstReps    = 8
	burstWindow  = 16 // jobs in the digest window
)

// burstJob is job i's configuration: the burst preset at 1024 nodes.
func burstJob(seed uint64) (repro.Job, error) {
	cfg := system.Baseline()
	cfg.Nodes = burstNodes
	cfg.Horizon = burstHorizon
	cfg.Seed = seed
	sc, err := scenario.Preset("burst", burstHorizon)
	if err != nil {
		return repro.Job{}, err
	}
	return repro.Job{Config: cfg, Scenario: sc, Reps: burstReps}, nil
}

func runBurst(ctx context.Context, o opts) (*result, error) {
	r := &result{rec: o.rec}
	warm, err := burstJob(1)
	if err != nil {
		return nil, err
	}
	warm.Reps = nproc
	b, err := setupBatch(ctx, o, r, warm)
	if err != nil {
		return nil, err
	}
	defer b.close()

	digest := sha256.New()
	job := func(ctx context.Context, i int, first func()) error {
		j, err := burstJob(jobSeed(o.seed, i))
		if err != nil {
			return err
		}
		res, err := b.sess.Run(ctx, j, repro.WithParallelism(nproc), repro.WithProgress(func(int, int) { first() }))
		if err != nil {
			return err
		}
		if !r.check(!res.Partial && len(res.Runs) == burstReps && res.Series != nil,
			"burst job %d: %d of %d reps, partial=%v, series=%v", i, len(res.Runs), burstReps, res.Partial, res.Series != nil) {
			return nil
		}
		for k, m := range res.Runs {
			r.check(engineOK(m.Engine) && m.Engine.TasksSubmitted > 0,
				"burst job %d rep %d: engine counts %+v", i, k, m.Engine)
		}
		if i < burstWindow {
			var buf [8]byte
			for _, v := range []float64{res.LocalMD.Mean, res.LocalMD.HalfCI, res.GlobalMD.Mean, res.GlobalMD.HalfCI} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				digest.Write(buf[:])
			}
			if err := res.Series.WriteCSV(digest); err != nil {
				return fmt.Errorf("series CSV: %w", err)
			}
		}
		return nil
	}
	s0, s1 := runBatchLoop(ctx, o, r, b, burstWindow, job, func() {
		windowCounts(r, b)
		r.digest = hex.EncodeToString(digest.Sum(nil))[:32]
	})
	batchLayers(r, s0, s1)
	return r, nil
}
