package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/dsn2015/vdbench/internal/dist"
)

func TestRunListsExperiments(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e10"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-quick", "e1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Metric catalogue") {
		t.Fatalf("unexpected output: %.100s", out.String())
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-quick", "-format", "csv", "e1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "id,name,") {
		t.Fatalf("CSV header missing: %.60s", out.String())
	}
}

func TestRunMarkdownFormat(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-quick", "-format", "markdown", "e1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| id | name |") {
		t.Fatalf("markdown header missing: %.80s", out.String())
	}
}

func TestRunJSONFormat(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-quick", "-format", "json", "e1"}, &out); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID     string            `json:"id"`
		Title  string            `json:"title"`
		Tables []json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal([]byte(out.String()), &decoded); err != nil {
		t.Fatalf("json output does not parse: %v\n%.120s", err, out.String())
	}
	if decoded.ID != "e1" || decoded.Title == "" || len(decoded.Tables) == 0 {
		t.Fatalf("json output shape wrong: %+v", decoded)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // no experiment
		{"e1", "e2"},                           // too many
		{"-quick", "e99"},                      // unknown experiment
		{"-quick", "-format", "xml", "e1"},     // unknown format
		{"-quick", "-services", "-5", "e3"},    // invalid override
		{"-quick", "-workers", "0", "e1"},      // workers must be positive
		{"-quick", "-workers", "-3", "e1"},     // workers must be positive
		{"-quick", "-shard-cases", "-1", "e1"}, // negative shard size
		{"-quick", "-shard-cases", "4", "e1"},  // -shard-cases without -distributed
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunSeedOverrideChangesCampaign(t *testing.T) {
	var a, b strings.Builder
	if err := run(context.Background(), []string{"-quick", "-seed", "1", "e3"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "-seed", "2", "e3"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Fatal("different seeds produced identical campaigns")
	}
	var a2 strings.Builder
	if err := run(context.Background(), []string{"-quick", "-seed", "1", "e3"}, &a2); err != nil {
		t.Fatal(err)
	}
	if a.String() != a2.String() {
		t.Fatal("same seed produced different output")
	}
}

func TestRunWorkersFlagPreservesOutput(t *testing.T) {
	var serial, parallel strings.Builder
	if err := run(context.Background(), []string{"-quick", "-workers", "1", "e3"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "-workers", "4", "e3"}, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatal("-workers changed the experiment output")
	}
	var out strings.Builder
	if err := run(context.Background(), []string{"-quick", "-workers", "-3", "e3"}, &out); err == nil {
		t.Fatal("negative -workers accepted")
	}
}

// TestRunRejectsExecutionPolicyFlags: experiments carry no execution
// policy (the standard suite never fails a cell, so none could change
// an output), and the flags that once set one are undefined.
func TestRunRejectsExecutionPolicyFlags(t *testing.T) {
	for _, flag := range []string{"-tool-timeout=30s", "-retries=1", "-retry-backoff=1ms", "-degraded=skip"} {
		var out strings.Builder
		err := run(context.Background(), []string{"-quick", flag, "e1"}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

func TestRunOutDirWritesArtefacts(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(context.Background(), []string{"-quick", "-out", dir, "e6"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e6.txt", "e6_table1.csv", "e6_figure1.svg", "e6_figure2.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing artefact %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("artefact %s is empty", name)
		}
	}
	svg, _ := os.ReadFile(filepath.Join(dir, "e6_figure1.svg"))
	if !strings.Contains(string(svg), "<svg") {
		t.Fatal("figure artefact is not SVG")
	}
}

// TestRunDistributedMatchesLocal runs experiments through the
// -distributed flag against an in-process coordinator with two workers
// and requires the rendered output to be byte-identical to the plain
// local run.
func TestRunDistributedMatchesLocal(t *testing.T) {
	coord := dist.NewCoordinator(dist.CoordinatorOptions{})
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wk := dist.NewWorker(dist.WorkerOptions{Join: srv.URL})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
		srv.Close()
		if err := coord.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// E14 replays the campaign, so it must also work on a merged one.
	for _, id := range []string{"e3", "e14"} {
		var local, remote strings.Builder
		if err := run(context.Background(), []string{"-quick", id}, &local); err != nil {
			t.Fatal(err)
		}
		args := []string{"-quick", "-distributed", srv.URL, "-shard-cases", "3", id}
		if err := run(context.Background(), args, &remote); err != nil {
			t.Fatal(err)
		}
		if local.String() != remote.String() {
			t.Fatalf("-distributed changed the %s output", id)
		}
	}
}
