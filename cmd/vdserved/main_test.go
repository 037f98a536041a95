package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/dist"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/workload"
)

// syncWriter makes the daemon's log output safe to read while run() is
// still writing from its own goroutine.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-workers", "0"},
		{"-workers", "-2"},
		{"positional"},
		{"-addr", "not a real:address:at:all"},
		{"-coordinator", "-worker", "-join", "http://x"}, // mutually exclusive modes
		{"-worker"},                                      // -worker without -join
		{"-join", "http://x"},                            // -join without -worker
		{"-heartbeat-interval", "1s"},                    // heartbeat flags need -coordinator
		{"-coordinator", "-heartbeat-interval", "-1s"},   // negative heartbeat cadence
		{"-coordinator", "-heartbeat-timeout", "-1s"},    // negative heartbeat timeout
	}
	for _, args := range cases {
		var out syncWriter
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunRejectsExecutionPolicyFlags: experiments carry no execution
// policy, so the flags that once set one are undefined.
func TestRunRejectsExecutionPolicyFlags(t *testing.T) {
	for _, flag := range []string{"-tool-timeout=30s", "-retries=1", "-retry-backoff=1ms", "-degraded=skip"} {
		var out syncWriter
		err := run(context.Background(), []string{flag}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

// TestRunServeAndGracefulShutdown boots the daemon on an ephemeral port,
// drives a job through the live API, then cancels the context (the
// signal path) and asserts a clean drain.
func TestRunServeAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quick", "-workers", "1"}, &out) }()

	// Wait for the listener line to learn the bound address.
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "vdserved listening on "); ok {
				base = strings.TrimSpace(rest)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"e1"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit body: %v %s", err, body)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/result?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("result = %d (%d bytes)", resp.StatusCode, len(body))
	}

	// The signal path: cancel the context and expect a clean drain.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v; output:\n%s", err, out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shutting down (draining running campaigns)") {
		t.Fatalf("no graceful-shutdown notice:\n%s", out.String())
	}
}

// waitForListener polls the daemon's output until a line with the given
// prefix announces the bound address.
func waitForListener(t *testing.T, out *syncWriter, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no %q line; output:\n%s", prefix, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				if i := strings.IndexByte(rest, ' '); i >= 0 {
					rest = rest[:i]
				}
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunDistributedSmoke is the tier-1 end-to-end check of the
// distributed modes: one vdserved coordinator plus two vdserved workers,
// all booted through run() exactly as the CLI would, executing a small
// campaign that must deep-equal the plain in-process run.
func TestRunDistributedSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var coordOut syncWriter
	done := make(chan error, 3)
	go func() {
		done <- run(ctx, []string{"-coordinator", "-addr", "127.0.0.1:0",
			"-heartbeat-interval", "50ms"}, &coordOut)
	}()
	base := waitForListener(t, &coordOut, "vdserved coordinator listening on ")

	var w1, w2 syncWriter
	go func() { done <- run(ctx, []string{"-worker", "-join", base, "-addr", "127.0.0.1:0"}, &w1) }()
	go func() { done <- run(ctx, []string{"-worker", "-join", base, "-addr", "127.0.0.1:0"}, &w2) }()

	// Readiness flips once the worker has a live registration.
	for _, wout := range []*syncWriter{&w1, &w2} {
		addr := waitForListener(t, wout, "vdserved worker listening on ")
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(addr + "/healthz/ready")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never became ready", addr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	wcfg := workload.Config{Services: 8, TargetPrevalence: 0.5, Seed: 3}
	opts := harness.Options{Seed: 3, Workers: 2}

	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RunCtx(context.Background(), corpus, tools, opts)
	if err != nil {
		t.Fatal(err)
	}

	client := dist.NewClient(base)
	got, err := client.RunCampaign(ctx, dist.CampaignSpec{
		Workload:   wcfg,
		Suite:      "standard",
		Options:    opts,
		ShardCases: 3, // several shards, so both workers get work
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("distributed campaign differs from local run")
	}

	cancel()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run returned %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("processes did not shut down; coordinator output:\n%s", coordOut.String())
		}
	}
}

// TestRunCoordinatorShutdownReleasesParkedPull cancels a coordinator
// while a live worker's pull is parked on it: the drain must release the
// pull, or the HTTP shutdown waits on it for the whole -drain budget.
func TestRunCoordinatorShutdownReleasesParkedPull(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-coordinator", "-addr", "127.0.0.1:0"}, &out) }()
	base := waitForListener(t, &out, "vdserved coordinator listening on ")

	wctx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- dist.NewWorker(dist.WorkerOptions{Join: base}).Run(wctx) }()
	defer func() {
		stopWorker()
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	waitParkedPull(t)

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator did not shut down; output:\n%s", out.String())
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("coordinator took %v to shut down with a parked pull, want under 1s", took)
	}
}

// waitParkedPull blocks until a goroutine is parked in
// dist.(*Coordinator).Pull, read from the goroutine dump.
func waitParkedPull(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[select") && strings.Contains(g, "dist.(*Coordinator).Pull(") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no pull ever parked on the coordinator")
		}
		runtime.Gosched()
	}
}

// TestRunRejectsDataDirInDistModes pins -data-dir to the default mode:
// the durable job store belongs to the experiment job API, not to the
// distributed coordinator or worker roles.
func TestRunRejectsDataDirInDistModes(t *testing.T) {
	for _, args := range [][]string{
		{"-data-dir", t.TempDir(), "-coordinator"},
		{"-data-dir", t.TempDir(), "-worker", "-join", "http://x"},
	} {
		var out syncWriter
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// daemonBaseQuick reconstructs the exact base configuration run() builds
// for "-quick", so tests can reproduce the daemon's campaigns in-process
// for byte comparison.
func daemonBaseQuick() vdbench.ExperimentConfig {
	cfg := vdbench.QuickExperimentConfig()
	cfg.Workers = 0
	return cfg
}

// TestHelperDaemon is not a test: it is the child process body for the
// kill-and-restart test below, re-executed from the test binary with
// VDSERVED_HELPER=1. It boots the real daemon main loop on an ephemeral
// port with a durable data directory.
func TestHelperDaemon(t *testing.T) {
	if os.Getenv("VDSERVED_HELPER") != "1" {
		t.Skip("helper process body for TestRunKillAndRestartByteIdentical")
	}
	args := []string{"-addr", "127.0.0.1:0", "-quick", "-workers", "1",
		"-data-dir", os.Getenv("VDSERVED_DATA_DIR")}
	if err := run(context.Background(), args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "helper daemon:", err)
		os.Exit(1)
	}
}

// startDaemonProcess re-executes the test binary as a real vdserved
// process against dir and waits for its listener announcement.
func startDaemonProcess(t *testing.T, dir string) (*exec.Cmd, string, *syncWriter) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDaemon$", "-test.v")
	cmd.Env = append(os.Environ(), "VDSERVED_HELPER=1", "VDSERVED_DATA_DIR="+dir)
	var out syncWriter
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	base := waitForListener(t, &out, "vdserved listening on ")
	return cmd, base, &out
}

// TestRunKillAndRestartByteIdentical is the process-level crash
// acceptance test: a real vdserved process is SIGKILLed with a job in
// flight, a successor on the same data directory replays the journal,
// and the recovered job's result is byte-identical to an uninterrupted
// in-process run of the same configuration.
func TestRunKillAndRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()

	first, base, _ := startDaemonProcess(t, dir)
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"e1"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit body: %v %s", err, body)
	}

	// SIGKILL the daemon with the job submitted (typically mid-campaign:
	// one worker, freshly dequeued). No cleanup runs; whatever made it to
	// the journal is all the successor gets.
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = first.Wait() // "signal: killed" — expected

	second, base2, out2 := startDaemonProcess(t, dir)
	if !strings.Contains(out2.String(), "vdserved: recovered") {
		t.Fatalf("successor printed no recovery line:\n%s", out2.String())
	}

	// The job survives under its original ID and completes (replayed from
	// its journaled config, or rehydrated if the blob landed pre-kill).
	resp, err = http.Get(base2 + "/v1/jobs/" + st.ID + "/result?format=text&wait=120s")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered result = %d: %s", resp.StatusCode, got)
	}

	direct, err := vdbench.RunExperiment("e1", daemonBaseQuick())
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Render("text")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("recovered result is not byte-identical to an uninterrupted run")
	}

	// The successor shuts down cleanly on SIGTERM (exit 0 proves the
	// helper's run() returned nil).
	if err := second.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- second.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("successor exit: %v\n%s", err, out2.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("successor did not drain; output:\n%s", out2.String())
	}
}

// TestRunWarmRestartLogsRecovery pins the startup recovery line on the
// graceful path: run a job to completion, shut down cleanly, restart on
// the same data directory, and the successor reports the restored and
// rehydrated job without re-executing it.
func TestRunWarmRestartLogsRecovery(t *testing.T) {
	dir := t.TempDir()

	ctx1, cancel1 := context.WithCancel(context.Background())
	var out1 syncWriter
	done1 := make(chan error, 1)
	go func() {
		done1 <- run(ctx1, []string{"-addr", "127.0.0.1:0", "-quick", "-workers", "1", "-data-dir", dir}, &out1)
	}()
	base := waitForListener(t, &out1, "vdserved listening on ")
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"experiment":"e1"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit body: %v %s", err, body)
	}
	if resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/result?wait=120s"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run result = %d", resp.StatusCode)
	}
	cancel1()
	if err := <-done1; err != nil {
		t.Fatalf("first daemon exit: %v\n%s", err, out1.String())
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var out2 syncWriter
	done2 := make(chan error, 1)
	go func() {
		done2 <- run(ctx2, []string{"-addr", "127.0.0.1:0", "-quick", "-workers", "1", "-data-dir", dir}, &out2)
	}()
	waitForListener(t, &out2, "vdserved listening on ")
	logLine := ""
	for _, line := range strings.Split(out2.String(), "\n") {
		if strings.HasPrefix(line, "vdserved: recovered") {
			logLine = line
		}
	}
	if logLine == "" {
		t.Fatalf("no recovery line; output:\n%s", out2.String())
	}
	if !strings.Contains(logLine, "1 jobs restored") || !strings.Contains(logLine, "1 results rehydrated") ||
		!strings.Contains(logLine, "0 jobs requeued") {
		t.Fatalf("recovery line does not describe a warm restart: %s", logLine)
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second daemon exit: %v\n%s", err, out2.String())
	}
}
