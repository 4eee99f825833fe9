// Package goldentest pins a command's stdout and exit code to golden
// files. The command's test binary re-executes itself with the
// invocation's arguments in the environment and runs the command's
// main() in place of the tests, so every run exercises the real flag
// parsing, output and exit paths.
package goldentest

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

// argsEnv carries an invocation's arguments into the re-executed test
// binary.
const argsEnv = "GOLDEN_ARGS"

// Main is the command package's TestMain. In a binary re-executed by
// Exec it runs main with the invocation's arguments and exits 0 when
// main returns; otherwise it runs the tests. Arguments on the command
// line win over the environment, and os.Args[0] stays the binary's
// path, so a command that re-executes itself keeps working under test.
func Main(m *testing.M, main func()) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		if len(os.Args) == 1 {
			os.Args = append(os.Args, strings.Fields(args)...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Exec runs the command with args in a re-executed test binary and
// returns its stdout, its stderr and its exit code.
func Exec(t testing.TB, args string) (stdout, stderr []byte, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), argsEnv+"="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.Bytes(), errOut.Bytes(), code
}

// A Case is one pinned invocation: its golden file is
// testdata/<Name>.golden.
type Case struct{ Name, Args string }

// Test runs every case as a parallel subtest of t and compares
// "# <command> <args>", "# exit <code>" and stdout byte-for-byte with
// the case's golden file; -update rewrites the files instead.
func Test(t *testing.T, command string, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := Exec(t, c.Args)
			got := fmt.Sprintf("# %s %s\n# exit %d\n%s", command, c.Args, code, stdout)

			path := filepath.Join("testdata", c.Name+".golden")
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
					path, stderr, got, want)
			}
		})
	}
}
