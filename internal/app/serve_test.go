package app

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a bytes.Buffer safe for the cross-goroutine reads the daemon
// lifecycle test needs (serveMain writes while the test polls).
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// awaitAddr polls the daemon's stdout until pattern's first group matches and
// returns it — the address serveMain reports once its listener is up.
func awaitAddr(t *testing.T, out, errb *syncBuf, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("daemon never reported %q; stdout: %s stderr: %s", pattern, out.String(), errb.String())
	return ""
}

// TestServeMainLifecycle boots the real daemon main on an ephemeral port,
// streams records over TCP, and shuts it down through context cancellation —
// the same path the signal handler takes.
func TestServeMainLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuf
	exit := make(chan int, 1)
	go func() {
		exit <- serveMain(ctx, []string{"-addr", "127.0.0.1:0", "-virtual-clock", "-n", "2", "-d", "2"}, &out, &errb)
	}()

	addr := awaitAddr(t, &out, &errb, `listening on (\S+)`)

	body := `{"n":2,"d":2}` + "\n" + `{"alts":[0,1]}` + "\n" + `{"t":1,"alts":[1,0]}` + "\n"
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/requests", addr), "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, reply)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/v1/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `"requests":2`) {
		t.Fatalf("metrics missing admitted requests: %s", metrics)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d; stderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
	if got := out.String(); !strings.Contains(got, "drained: requests=2 fulfilled=2 expired=0") {
		t.Fatalf("final summary missing drain totals:\n%s", got)
	}
}

// TestServeMainPprof boots the daemon with -pprof on an ephemeral port and
// checks the profiler answers on its own listener — and only when asked for.
func TestServeMainPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuf
	exit := make(chan int, 1)
	go func() {
		exit <- serveMain(ctx, []string{
			"-addr", "127.0.0.1:0", "-virtual-clock", "-n", "2", "-d", "2",
			"-pprof", "127.0.0.1:0",
		}, &out, &errb)
	}()

	addr := awaitAddr(t, &out, &errb, `pprof on http://(\S+)/debug/pprof/`)
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}

	// The daemon's own handler must not expose the profiler.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", awaitAddr(t, &out, &errb, `listening on (\S+)`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("daemon handler exposes /debug/pprof/ without -pprof routing")
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d; stderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}

	// The profiler listener must die with the daemon, not linger for the
	// process lifetime.
	if _, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr)); err == nil {
		t.Fatal("pprof listener still answering after daemon shutdown")
	}
}

// TestServeMainUsageErrors pins the exit codes of the flag layer.
func TestServeMainUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "no_such_strategy"},
		{"-strategy", "A_balance,bogus=1"},
		{"-d", "4", "-max-d", "2"},
		{"-queue", "-3"},
	} {
		var out, errb bytes.Buffer
		if code := serveMain(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("serveMain(%v): exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := serveMain(context.Background(), []string{"-addr", "256.256.256.256:1"}, &out, &errb); code != 1 {
		t.Errorf("unlistenable address: exit %d, want 1", code)
	}
}

// TestServeMainDropsStalledHeader pins the listener's header timeout: a
// client that sends half a request line and then nothing is disconnected by
// the running daemon within readHeaderTimeout, instead of holding a
// connection and its goroutine forever.
func TestServeMainDropsStalledHeader(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuf
	exit := make(chan int, 1)
	go func() {
		exit <- serveMain(ctx, []string{"-addr", "127.0.0.1:0", "-virtual-clock", "-n", "2", "-d", "2"}, &out, &errb)
	}()
	addr := awaitAddr(t, &out, &errb, `listening on (\S+)`)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/heal"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 3*time.Second))
	_, err = io.Copy(io.Discard, conn) // returns once the daemon closes the connection
	if err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}

	cancel()
	if code := <-exit; code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
}
