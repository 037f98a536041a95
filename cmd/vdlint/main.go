// Command vdlint runs the module's repo-specific static analyzers (see
// internal/vdlint) over the source tree and exits non-zero when any
// analyzer reports a finding. It is part of the tier-1 verification line:
//
//	go vet ./... && go run ./cmd/vdlint -json ./...
//
// Arguments are package patterns for familiarity with go tooling, but the
// analyzers are whole-module checks: any pattern (or none) loads the
// module containing the working directory.
//
// Exit status: 0 clean, 1 findings, 2 load or analysis error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/dsn2015/vdbench/internal/vdlint"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated analyzers to run (default: all)")
		skip    = flag.String("skip", "", "comma-separated analyzers to skip")
		jsonOut = flag.Bool("json", false, "emit diagnostics as a stable JSON array")
		workers = flag.Int("workers", 0, "parallel type-check/analysis workers (0 = GOMAXPROCS)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vdlint [flags] [./...]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		for _, a := range vdlint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vdlint:", err)
		os.Exit(2)
	}
	root, err := moduleRoot(".")
	if err != nil {
		fail(err)
	}
	prog, err := vdlint.Load(root)
	if err != nil {
		fail(err)
	}
	diags, err := vdlint.Run(prog, vdlint.All(), vdlint.Options{
		Workers: *workers,
		Only:    splitList(*only),
		Skip:    splitList(*skip),
	})
	if err != nil {
		fail(err)
	}
	if *jsonOut {
		if err := vdlint.WriteJSON(os.Stdout, diags); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// moduleRoot walks up from dir to the nearest directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
