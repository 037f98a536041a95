package vdbench

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSourcesAreGofmted runs go/format over every .go file of this
// module and fails listing the files that are not formatted. Nested
// modules (vdperf/, the vdlint golden tree) and hidden directories are
// outside this module and are skipped.
func TestSourcesAreGofmted(t *testing.T) {
	var unformatted []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := format.Source(src)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, src) {
			unformatted = append(unformatted, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(unformatted) > 0 {
		t.Fatalf("files not gofmt-formatted (run gofmt -w):\n%s", strings.Join(unformatted, "\n"))
	}
}
