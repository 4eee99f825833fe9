package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenArgsEnv carries a scenario's arguments into a re-executed test
// binary, which then runs main() in place of the tests.
const goldenArgsEnv = "FLIPCSIM_GOLDEN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(goldenArgsEnv); ok {
		os.Args = append([]string{"flipcsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenRuns are the invocations CI and the docs run. Every scenario is
// deterministic in virtual time, so stdout and the exit code are pinned
// byte-for-byte.
var goldenRuns = []struct{ name, args string }{
	// CI gates.
	{"topics-batch", "-topics -batch 4 -flushdl 2us"},
	{"failover", "-failover"},
	{"slowsub", "-slowsub"},
	{"shards", "-shards"},
	{"shards-hot", "-shards -msgs 1000 -gap 5us"},
	{"gateway", "-gateway"},
	{"gateway-hot", "-gateway -msgs 256 -gwclients 8"},
	// README and package doc examples.
	{"ping", ""},
	{"topics", "-topics"},
	{"topics-nodes3", "-topics -nodes 3"},
	{"mesh16", "-nodes 16 -dst 15 -poll 2us"},
	{"chaos", "-chaos 0.05 -checksum -checks -msgs 2000"},
	{"chaos-drop", "-chaos-drop 0.1 -chaos-seed 7"},
	{"priority", "-policy priority -prio 7"},
	{"slow-engine", "-poll 4us -msgs 1000 -gap 5us"},
}

func TestGolden(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(), goldenArgsEnv+"="+run.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			got := fmt.Sprintf("# flipcsim %s\n# exit %d\n%s", run.args, code, stdout.Bytes())

			path := filepath.Join("testdata", run.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s (stderr: %q)\n--- got ---\n%s--- want ---\n%s",
					path, stderr.String(), got, want)
			}
		})
	}
}
