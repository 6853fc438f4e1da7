package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/workload"
)

// runOut runs the CLI with an in-memory stdout and returns what it
// printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

// writePatches runs the offline analyzer over the service's crashing
// request — the same analysis a live rollout performs — and writes the
// patch configuration file an operator would deploy with.
func writePatches(t *testing.T, svc *workload.Service) string {
	t.Helper()
	p, err := svc.VulnerableProgram()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	a := &analysis.Analyzer{Coder: coder}
	rep, err := a.Analyze(p, svc.CrashRequest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patches.Len() == 0 {
		t.Fatal("analysis produced no patches")
	}
	path := filepath.Join(t.TempDir(), "p.conf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Patches.WriteConfig(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDemoPrepatched: with an initial patch configuration the attack
// never escapes, so the demo reports containment and skips the
// rollout.
func TestDemoPrepatched(t *testing.T) {
	patches := writePatches(t, workload.Nginx())
	out, err := runOut(t, "-demo", "-workers", "1", "-patches", patches)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"initial patches 1",
		"[2] attack: contained (HTTP 502)",
		"[3] rollout: not needed",
		"[7] drain: complete",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q:\n%s", want, out)
		}
	}
}

// TestLiveServe exercises the real listener: bind :0, serve traffic
// over TCP, then drain through the signal path's test seam and check
// the shutdown summary.
func TestLiveServe(t *testing.T) {
	addrCh := make(chan string, 1)
	oldAnnounce := announce
	announce = func(msg string) { addrCh <- strings.TrimPrefix(msg, "listening on ") }
	testStop = make(chan struct{})
	defer func() { announce = oldAnnounce; testStop = nil }()

	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-workers", "2", "-addr", "127.0.0.1:0"}, &buf)
	}()

	var url string
	select {
	case url = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("server never announced its address")
	}
	svc := workload.Nginx()
	resp, err := http.Post(url+"/request", "application/octet-stream", bytes.NewReader(svc.BenignRequest()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || uint64(len(body)) != svc.BufSize {
		t.Fatalf("live request: %d (%d bytes)", resp.StatusCode, len(body))
	}
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}

	close(testStop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed")
	}
	if !strings.Contains(buf.String(), "drained: 1 requests served") {
		t.Errorf("shutdown summary missing:\n%s", buf.String())
	}
}

func TestErrors(t *testing.T) {
	if _, err := runOut(t, "-service", "apache"); err == nil {
		t.Error("unknown service accepted")
	}
	if _, err := runOut(t, "-engine", "tree"); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-engine tree: err = %v, want an unknown-flag error", err)
	}
	if _, err := runOut(t, "-patches", filepath.Join(t.TempDir(), "missing.conf")); err == nil {
		t.Error("missing patch file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.conf")
	if err := os.WriteFile(bad, []byte("patch malloc NOT-A-NUMBER overflow\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runOut(t, "-patches", bad); err == nil {
		t.Error("malformed patch file accepted")
	}
	if _, err := runOut(t, "-addr", "999.999.999.999:0"); err == nil {
		t.Error("unbindable address accepted")
	}
}

// TestSlowHeadersDisconnected: a client that opens a connection and
// never finishes its request headers (slowloris) is disconnected by the
// live server once the header timeout passes.
func TestSlowHeadersDisconnected(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns http.ErrServerClosed on Close
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// Headers without the terminating blank line.
	if _, err := conn.Write([]byte("POST /request HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the headers stalled (header timeout %v)", elapsed, readHeaderTimeout)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
