package repro

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestQueueKindsBitIdenticalAbortPath covers the trickiest interaction
// between the event queues and the model: tardy aborts change which
// events exist downstream, so any pop-order difference between the heap
// and the ladder would cascade visibly. The 600-node abort job runs on
// the ladder (every replication promotes at setup); its committed
// golden bytes were produced only after the heap, the ladder and the
// promoting engine rendered them identically, so matching them shows
// the ladder still reproduces the heap's order on the abort path.
func TestQueueKindsBitIdenticalAbortPath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden CSVs are pinned on amd64: Go fuses multiply-add into FMA on %s", runtime.GOARCH)
	}
	var abort *goldenCase
	for _, c := range goldenCases() {
		if c.name == "run-abort-600" {
			abort = &c
		}
	}
	if abort == nil {
		t.Fatal("no run-abort-600 golden case")
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, abort.name+".sha256"))
	if err != nil {
		t.Fatal(err)
	}

	cfg := BaselineConfig()
	cfg.Nodes, cfg.Horizon = goldenRunNodes, goldenRunHorizon
	cfg.Load, cfg.TardyAbort = 0.8, true
	cfg.SSP, cfg.PSP = "EQF", "DIV-1"
	sess := NewSession()
	defer sess.Close()
	res, err := sess.Run(context.Background(), Job{Config: cfg, Reps: goldenRunReps})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Runs {
		if m.Engine.QueuePromotions == 0 {
			t.Fatalf("replication %d stayed on the heap", i)
		}
		if m.GlobalAborted == 0 {
			t.Fatalf("replication %d aborted no global instance", i)
		}
	}
	if got := goldenFile(*abort, runCSV(res)); got != string(want) {
		t.Fatalf("abort path on the ladder drifted from the heap's bytes:\n--- want\n%s--- got\n%s", want, got)
	}
}
