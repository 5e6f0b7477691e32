package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// digestRecord is what a run leaves behind for the next run of the same
// workload and seed: which build produced it, the output digest, and
// the exact counts.
type digestRecord struct {
	Build  string             `json:"build"`
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
}

// buildID hashes the running executable, so records compare only runs
// of the same code.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkDigest compares a phase's digest and exact counts with the
// record of the previous run of this build at the same workload and
// seed — a speed-only change must leave every simulated statistic
// identical — and then updates the record. A different build's record
// is reported and replaced, never failed.
func checkDigest(dir, workload string, seed uint64, seconds float64, mode string, r *result) (ok bool, note string, err error) {
	build, err := buildID()
	if err != nil {
		return false, "", err
	}
	// serve-mix's schedule length depends on the window, so the inputs
	// are the same only at the same seed and window.
	path := filepath.Join(dir, fmt.Sprintf("digest-%s-seed%d-%gs.json", workload, seed, seconds))
	var prev digestRecord
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		note = "(first record at this seed)"
	case err != nil:
		return false, "", err
	default:
		if err := json.Unmarshal(data, &prev); err != nil {
			return false, "", fmt.Errorf("%s: %w", path, err)
		}
	}
	next := digestRecord{Build: build, Digest: r.digest, Counts: map[string]float64{}}
	ok = true
	if prev.Build == build {
		for k, v := range prev.Counts {
			next.Counts[k] = v
		}
		var diffs []string
		if prev.Digest != r.digest {
			diffs = append(diffs, "output digest "+prev.Digest)
		}
		for _, k := range sortedKeys(r.counts) {
			if v, seen := prev.Counts[k]; seen && v != r.counts[k] {
				diffs = append(diffs, fmt.Sprintf("%s %v→%v", k, v, r.counts[k]))
			}
		}
		if len(diffs) > 0 {
			ok = false
			note = fmt.Sprintf("DIFFERS from the previous %s run of this build: %v", mode, diffs)
			r.problems = append(r.problems, note)
		} else {
			note = "(matches the previous run of this build)"
		}
	} else if prev.Build != "" {
		same := "same"
		if prev.Digest != r.digest {
			same = "different"
		}
		note = fmt.Sprintf("(%s output than build %s)", same, prev.Build)
	}
	for k, v := range r.counts {
		next.Counts[k] = v
	}
	data, err = json.MarshalIndent(next, "", "  ")
	if err != nil {
		return false, "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return false, "", err
	}
	return ok, note, os.Rename(tmp, path)
}

// engineCounts turns an engine snapshot into the exact per-layer counts.
// Every value is a pure function of the jobs that ran.
func engineCounts(e obs.EngineStats) map[string]float64 {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"system.tasks":         float64(e.TasksSubmitted),
		"sim.events_fired":     float64(e.EventsFired),
		"sim.events_per_task":  ratio(e.EventsFired, e.TasksSubmitted),
		"sim.pending_hwm":      float64(e.PendingHWM),
		"sim.queue_promotions": float64(e.QueuePromotions),
		"sim.cancel_ratio":     ratio(e.EventsCancelled, e.EventsScheduled),
		"sched.ready_hwm":      float64(e.ReadyHWM),
		"node.abort_ratio":     ratio(e.TasksAborted, e.TasksSubmitted),
		"node.preemptions":     float64(e.Preemptions),
	}
}

// engineOK checks the engine invariant completed + aborted ≤ submitted.
func engineOK(e obs.EngineStats) bool {
	return e.TasksCompleted+e.TasksAborted <= e.TasksSubmitted
}
