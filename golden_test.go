package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/session"
)

// The golden corpus pins the simulator's output to committed bytes, so
// "byte-identical" means identical to a reference, not merely to another
// run of the same build. testdata/golden holds one file per case in
// sha256sum format: the SHA-256 of the case's CSV, plus '#' comment
// lines carrying the CLI command that reproduces it (scenario presets)
// and the CSV's first lines, so a changed hash comes with a readable
// diff. `sha256sum -c` accepts the files as they are.
//
// Regenerate only on purpose, and log every regeneration with its
// reason in CHANGES.md:
//
//	go test -run '^TestGolden$' -update .

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from this build")

const (
	goldenDir       = "testdata/golden"
	goldenHeadLines = 4

	// Registry experiments run at this horizon with one replication.
	goldenExpHorizon = 2000
	// Scenario presets run at 1024 nodes: the ladder queue, the SoA
	// fleet and the wide bank are all on the path.
	goldenPresetNodes   = 1024
	goldenPresetHorizon = 250
	goldenPresetReps    = 2
	// Plain runs (goldenRuns) run at this topology and horizon.
	goldenRunNodes   = 600
	goldenRunHorizon = 600
	goldenRunReps    = 2
)

// goldenPresets lists every built-in scenario preset.
var goldenPresets = []string{"burst", "heavytail", "outage", "ramp", "storm"}

// goldenRuns are plain (scenario-free) jobs at 600 nodes, EQF/DIV-1:
// large enough that every replication's event queue promotes from the
// heap to the ladder. One runs at load 0.7; the other takes the
// tardy-abort path at load 0.8, where aborted global instances recycle
// task objects while their queued siblings still drain.
var goldenRuns = []struct {
	name       string
	load       float64
	tardyAbort bool
}{
	{"run-promote-600", 0.7, false},
	{"run-abort-600", 0.8, true},
}

// runCSV renders one row per replication: every count and mean a
// diverging pop order or a recycling bug would disturb, floats in
// shortest round-trip form.
func runCSV(res *RunResult) string {
	var b strings.Builder
	b.WriteString("seed,local_generated,local_done,local_aborted,global_generated,global_done,global_aborted," +
		"md_local,md_global,local_response_mean,global_response_mean,global_tardiness_mean\n")
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, m := range res.Runs {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s\n", res.Seeds[i],
			m.LocalGenerated, m.LocalDone, m.LocalAborted,
			m.GlobalGenerated, m.GlobalDone, m.GlobalAborted,
			g(m.MDLocal()), g(m.MDGlobal()), g(m.LocalResponse.Mean()),
			g(m.GlobalResponse.Mean()), g(m.GlobalTardiness.Mean()))
	}
	return b.String()
}

// goldenCase is one pinned output: a file stem, the sdascn arguments
// that reproduce it (empty for registry experiments and plain runs), and
// a producer that renders its CSV.
type goldenCase struct {
	name    string
	command string
	csv     func(ctx context.Context, sess *Session) (string, error)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, e := range Experiments() {
		id := e.ID
		cases = append(cases, goldenCase{
			name: "exp-" + id,
			csv: func(ctx context.Context, sess *Session) (string, error) {
				res, err := sess.Experiment(ctx, id, ExperimentOptions{
					Horizon: goldenExpHorizon, Reps: 1, Seed: 1,
				})
				if err != nil {
					return "", err
				}
				// The body `sdasim -format csv` prints: notes, then the
				// figure's CSV when it has data.
				body := res.Notes
				if res.Figure != nil && len(res.Figure.Curves) > 0 {
					body += RenderCSV(res.Figure)
				}
				return body, nil
			},
		})
	}
	for _, preset := range goldenPresets {
		name := "preset-" + preset
		cases = append(cases, goldenCase{
			name: name,
			command: fmt.Sprintf("sdascn -preset %s -nodes %d -horizon %d -reps %d -seed 1 -quiet -out %s.csv",
				preset, goldenPresetNodes, goldenPresetHorizon, goldenPresetReps, name),
			csv: func(ctx context.Context, sess *Session) (string, error) {
				// Mirrors sdascn: the baseline config, the preset scaled
				// to the horizon, and the series writer -out uses.
				cfg := BaselineConfig()
				cfg.Nodes = goldenPresetNodes
				cfg.Horizon = goldenPresetHorizon
				cfg.Seed = 1
				sc, err := ScenarioPreset(preset, cfg.Horizon)
				if err != nil {
					return "", err
				}
				res, err := sess.RunScenario(ctx, cfg, sc, goldenPresetReps)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				if err := res.Series.WriteCSV(&b); err != nil {
					return "", err
				}
				return b.String(), nil
			},
		})
	}
	for _, r := range goldenRuns {
		cases = append(cases, goldenCase{
			name: r.name,
			csv: func(ctx context.Context, sess *Session) (string, error) {
				cfg := BaselineConfig()
				cfg.Nodes, cfg.Horizon = goldenRunNodes, goldenRunHorizon
				cfg.Load, cfg.TardyAbort = r.load, r.tardyAbort
				cfg.SSP, cfg.PSP = "EQF", "DIV-1"
				res, err := sess.Run(ctx, Job{Config: cfg, Reps: goldenRunReps})
				if err != nil {
					return "", err
				}
				for i, m := range res.Runs {
					if m.Engine.QueuePromotions == 0 {
						return "", fmt.Errorf("replication %d never promoted its event queue", i)
					}
				}
				return runCSV(res), nil
			},
		})
	}
	return cases
}

// goldenFile renders a case's golden file.
func goldenFile(c goldenCase, csv string) string {
	var b strings.Builder
	if c.command != "" {
		fmt.Fprintf(&b, "# command: %s\n", c.command)
	}
	sum := sha256.Sum256([]byte(csv))
	fmt.Fprintf(&b, "%s  %s.csv\n", hex.EncodeToString(sum[:]), c.name)
	fmt.Fprintf(&b, "# head:\n")
	lines := strings.SplitAfter(csv, "\n")
	for i := 0; i < len(lines) && i < goldenHeadLines; i++ {
		if l := strings.TrimSuffix(lines[i], "\n"); l != "" {
			fmt.Fprintf(&b, "# %s\n", l)
		}
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden CSVs are pinned on amd64: Go fuses multiply-add into FMA on %s, which changes low-order float bits", runtime.GOARCH)
	}
	ctx := context.Background()
	sess := NewSession()
	defer sess.Close()
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			csv, err := c.csv(ctx, sess)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFile(c, csv)
			path := filepath.Join(goldenDir, c.name+".sha256")
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Fatalf("output drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
			}
		})
	}
}

// TestGoldenThroughResultCache runs one preset twice through a result
// cache over a pool: the first run misses every seed and simulates,
// the second is served entirely from cache hits. Both must render the
// committed bytes.
func TestGoldenThroughResultCache(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden CSVs are pinned on amd64: Go fuses multiply-add into FMA on %s", runtime.GOARCH)
	}
	var c goldenCase
	for _, gc := range goldenCases() {
		if gc.name == "preset-burst" {
			c = gc
		}
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, c.name+".sha256"))
	if err != nil {
		t.Fatal(err)
	}
	pool := session.NewPool()
	defer pool.Close()
	cache := NewResultCache(pool, 0)
	sess := NewSessionWithBackend(cache)
	defer sess.Close()
	for _, pass := range []struct {
		name         string
		hits, misses uint64
	}{
		{"cold", 0, goldenPresetReps},
		{"warm", goldenPresetReps, goldenPresetReps},
	} {
		csv, err := c.csv(context.Background(), sess)
		if err != nil {
			t.Fatalf("%s: %v", pass.name, err)
		}
		if got := goldenFile(c, csv); got != string(want) {
			t.Fatalf("%s run drifted from the golden:\n--- want\n%s--- got\n%s", pass.name, want, got)
		}
		if st := cache.CacheStats(); st.Hits != pass.hits || st.Misses != pass.misses {
			t.Fatalf("%s run: cache hits %d misses %d, want %d and %d",
				pass.name, st.Hits, st.Misses, pass.hits, pass.misses)
		}
	}
}
