package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// runOne runs cfg as a one-replication job on sess, sequentially.
func runOne(sess *Session, cfg SimConfig) (*SimMetrics, error) {
	res, err := sess.Run(context.Background(), Job{Config: cfg}, WithParallelism(1))
	if err != nil {
		return nil, err
	}
	return res.Runs[0], nil
}

// simSig fingerprints a run for byte-level comparison of everything the
// renderers consume.
func simSig(m *SimMetrics) string {
	return fmt.Sprintf("%d %d %d %d %d %d %v %v %v %v %v",
		m.LocalGenerated, m.LocalDone, m.LocalAborted,
		m.GlobalGenerated, m.GlobalDone, m.GlobalAborted,
		m.MDLocal(), m.MDGlobal(), m.LocalResponse.Mean(),
		m.GlobalResponse.Mean(), m.GlobalTardiness.Mean())
}

// TestSessionExperimentMatchesRunExperiment: the session-scoped
// experiment path renders byte-identical CSV to the package-level one.
func TestSessionExperimentMatchesRunExperiment(t *testing.T) {
	opts := ExperimentOptions{Horizon: 1200, Reps: 2, Seed: 3}
	old, err := RunExperiment("fig2b", opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	defer sess.Close()
	res, err := sess.Experiment(context.Background(), "fig2b", opts)
	if err != nil {
		t.Fatal(err)
	}
	if RenderCSV(old.Figure) != RenderCSV(res.Figure) {
		t.Fatal("Session.Experiment CSV differs from RunExperiment")
	}
}

// TestStreamConcatenationEqualsBatch at the public API: streaming is
// pure delivery, never a different computation.
func TestStreamConcatenationEqualsBatch(t *testing.T) {
	cfg := BaselineConfig()
	cfg.Horizon = 3000
	sess := NewSession(WithParallelism(3))
	defer sess.Close()
	job := Job{Config: cfg, Reps: 4}
	batch, err := sess.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stream(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it := range st.Items() {
		if it.Index != i || simSig(it.Metrics) != simSig(batch.Runs[i]) {
			t.Fatalf("stream item %d (index %d) diverged from batch", i, it.Index)
		}
		i++
	}
	if i != len(batch.Runs) {
		t.Fatalf("stream delivered %d of %d results", i, len(batch.Runs))
	}
}

// TestCancelledExperimentFails: an already-cancelled context fails an
// experiment cleanly rather than producing a partial figure.
func TestCancelledExperimentFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := NewSession()
	defer sess.Close()
	_, err := sess.Experiment(ctx, "fig2b", ExperimentOptions{Horizon: 1000, Reps: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
