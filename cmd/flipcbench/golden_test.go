package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flipc/internal/goldentest"
)

func TestMain(m *testing.M) { goldentest.Main(m, main) }

// goldenRuns are the experiment-table invocations. The experiments run
// on the simulated mesh and are deterministic per seed, so stdout and
// the exit code are pinned byte-for-byte.
var goldenRuns = []goldentest.Case{
	{Name: "all", Args: ""},
	{Name: "list", Args: "-list"},
	{Name: "seed7", Args: "-seed 7"},
	{Name: "E4", Args: "-experiment E4"},
	{Name: "A1", Args: "-experiment A1"},
	{Name: "E1-csv", Args: "-experiment E1 -csv"},
	{Name: "unknown", Args: "-experiment E99"},
}

func TestGolden(t *testing.T) { goldentest.Test(t, "flipcbench", goldenRuns) }

// TestBenchSchema runs each wall-clock mode small, with its
// conservation gate on, and checks that its JSON report has the schema
// of the checked-in BENCH_*.json it regenerates. The figures are
// wall-clock and not compared; the key set and the row order are.
func TestBenchSchema(t *testing.T) {
	for _, run := range []struct {
		bench, args string
		rowKey      []string // identifies each results row, in order
	}{
		{"BENCH_pubsub.json", "-pubsub -publishes 300", []string{"scenario", "subscribers"}},
		{"BENCH_agg.json", "-agg -publishes 3000", []string{"mode", "batch_frames", "flush_deadline_us"}},
		{"BENCH_gateway.json", "-gateway -gateway-clients 3,30 -gateway-rounds 20", nil},
	} {
		t.Run(run.bench, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), run.bench)
			_, stderr, code := goldentest.Exec(t, run.args+" -json "+path)
			if code != 0 {
				t.Fatalf("flipcbench %s: exit %d\n%s", run.args, code, stderr)
			}
			got, want := readJSON(t, path), readJSON(t, filepath.Join("..", "..", run.bench))

			gotKeys, wantKeys := map[string]bool{}, map[string]bool{}
			keyPaths(got, "", gotKeys)
			keyPaths(want, "", wantKeys)
			for k := range gotKeys {
				if !wantKeys[k] {
					t.Errorf("key %s is not in %s", k, run.bench)
				}
			}
			for k := range wantKeys {
				if !gotKeys[k] && !zeroCounts[k] {
					t.Errorf("key %s of %s is missing", k, run.bench)
				}
			}
			if run.rowKey != nil {
				if g, w := rowIDs(got, run.rowKey), rowIDs(want, run.rowKey); !reflect.DeepEqual(g, w) {
					t.Errorf("results rows:\n got %v\nwant %v", g, w)
				}
			}
		})
	}
}

// zeroCounts are the omitempty counters a short run may leave at zero
// (a durable row with no window deferral or replay), so their keys may
// be absent from the smoke run's report.
var zeroCounts = map[string]bool{
	".results[].deferred": true,
	".results[].replayed": true,
}

func readJSON(t *testing.T, path string) any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return v
}

// keyPaths records every object key under v as a dotted path, with
// array elements collapsed to "[]".
func keyPaths(v any, prefix string, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			out[prefix+"."+k] = true
			keyPaths(e, prefix+"."+k, out)
		}
	case []any:
		for _, e := range v {
			keyPaths(e, prefix+"[]", out)
		}
	}
}

// rowIDs lists the identifying fields of each results row, in order.
func rowIDs(report any, fields []string) []string {
	var ids []string
	for _, row := range report.(map[string]any)["results"].([]any) {
		id := ""
		for _, f := range fields {
			id += fmt.Sprintf("%v/", row.(map[string]any)[f])
		}
		ids = append(ids, id)
	}
	return ids
}
