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
	"strings"
	"testing"
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
)

// goldenPresets lists every built-in scenario preset.
var goldenPresets = []string{"burst", "heavytail", "outage", "ramp", "storm"}

// goldenCase is one pinned output: a file stem, the sdascn arguments
// that reproduce it (empty for registry experiments), and a producer
// that renders its CSV with pooling on or off.
type goldenCase struct {
	name    string
	command string
	csv     func(ctx context.Context, sess *Session, nopool bool) (string, error)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, e := range Experiments() {
		id := e.ID
		cases = append(cases, goldenCase{
			name: "exp-" + id,
			csv: func(ctx context.Context, sess *Session, nopool bool) (string, error) {
				res, err := sess.Experiment(ctx, id, ExperimentOptions{
					Horizon: goldenExpHorizon, Reps: 1, Seed: 1, DisablePooling: nopool,
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
			csv: func(ctx context.Context, sess *Session, nopool bool) (string, error) {
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
				var opts []RunOption
				if nopool {
					opts = append(opts, WithPoolingDisabled())
				}
				res, err := sess.RunScenario(ctx, cfg, sc, goldenPresetReps, opts...)
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
			pooled, err := c.csv(ctx, sess, false)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := c.csv(ctx, sess, true)
			if err != nil {
				t.Fatal(err)
			}
			if pooled != ref {
				t.Fatalf("CSV differs with pooling on vs off:\npooled:\n%s\nreference:\n%s", pooled, ref)
			}
			got := goldenFile(c, pooled)
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
