package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/serve"
	"reqsched/internal/strategies"
	"reqsched/internal/trace"
	"reqsched/internal/workload"
)

// newServer boots a daemon plus an httptest frontend and registers cleanup.
func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Strategy == nil {
		cfg.Strategy = strategies.NewBalance()
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

type ingestReply struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error"`
	Offset   *int64 `json:"offset"`
}

func post(t *testing.T, ts *httptest.Server, body string) (int, ingestReply, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/requests", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("ingest reply: %v", err)
	}
	return resp.StatusCode, rep, resp.Header
}

func drain(t *testing.T, ts *httptest.Server) serve.Metrics {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("drain reply: %v", err)
	}
	return m
}

func metrics(t *testing.T, ts *httptest.Server) serve.Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics reply: %v", err)
	}
	return m
}

// gappedTrace is a bursty workload whose quiet gaps exceed the deadline
// window, so the stream cuts into several independent segments — the shape
// that exercises the rolling-ratio pipeline.
func gappedTrace() *core.Trace {
	return workload.Bursty(workload.Config{N: 6, D: 4, Rounds: 90, Rate: 0, Seed: 5}, 3, 10, 8)
}

// TestVirtualClockBitIdenticalToRun is the tentpole equivalence check: a
// workload streamed through the daemon under the virtual clock must produce
// the same schedule — fulfillment by fulfillment — as core.Run on the
// materialized trace, and the rolling ratio must equal the post-hoc offline
// pipeline on the same stream.
func TestVirtualClockBitIdenticalToRun(t *testing.T) {
	tr := gappedTrace()
	var buf bytes.Buffer
	if err := trace.WriteStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	s, ts := newServer(t, serve.Config{N: tr.N, D: tr.D, Virtual: true, KeepLog: true})

	// Stream in two chunks split at a line boundary, header included in the
	// first — the daemon must stitch consecutive uploads seamlessly.
	lines := strings.SplitAfter(buf.String(), "\n")
	mid := len(lines) / 2
	for _, chunk := range []string{strings.Join(lines[:mid], ""), strings.Join(lines[mid:], "")} {
		code, rep, _ := post(t, ts, chunk)
		if code != http.StatusOK {
			t.Fatalf("ingest: status %d (%s)", code, rep.Error)
		}
	}
	m := drain(t, ts)

	want := core.Run(strategies.NewBalance(), tr)
	got := s.FinalResult()
	if got == nil {
		t.Fatal("no final result after drain")
	}
	if got.Requests != want.Requests || got.Fulfilled != want.Fulfilled || got.Expired != want.Expired {
		t.Fatalf("daemon requests/fulfilled/expired %d/%d/%d, engine %d/%d/%d",
			got.Requests, got.Fulfilled, got.Expired, want.Requests, want.Fulfilled, want.Expired)
	}
	if fmt.Sprint(got.PerResource) != fmt.Sprint(want.PerResource) {
		t.Fatalf("per-resource %v vs %v", got.PerResource, want.PerResource)
	}
	if len(got.Log) != len(want.Log) {
		t.Fatalf("log length %d vs %d", len(got.Log), len(want.Log))
	}
	for i := range got.Log {
		g, w := got.Log[i], want.Log[i]
		if g.Req.ID != w.Req.ID || g.Res != w.Res || g.Round != w.Round {
			t.Fatalf("fulfillment %d: (req %d, res %d, round %d) vs (req %d, res %d, round %d)",
				i, g.Req.ID, g.Res, g.Round, w.Req.ID, w.Res, w.Round)
		}
	}

	// Rolling ratio: OPT over solved segments must equal the stream's offline
	// optimum, ALG the engine's fulfillments, and the segment count the
	// clean-cut segmentation of the same stream.
	opt, nsegs, err := offline.OptimumStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rolling.Opt != opt || m.Rolling.Alg != want.Fulfilled {
		t.Fatalf("rolling OPT/ALG %d/%d, offline pipeline %d/%d",
			m.Rolling.Opt, m.Rolling.Alg, opt, want.Fulfilled)
	}
	if m.Rolling.Closed != nsegs || m.Rolling.Solved != nsegs {
		t.Fatalf("segments closed/solved %d/%d, stream has %d", m.Rolling.Closed, m.Rolling.Solved, nsegs)
	}
	if nsegs < 2 {
		t.Fatalf("workload produced %d segments; the rolling pipeline needs several to mean anything", nsegs)
	}
	if m.Requests != want.Requests || m.Fulfilled != want.Fulfilled || m.Expired != want.Expired {
		t.Fatalf("drain metrics %d/%d/%d disagree with engine %d/%d/%d",
			m.Requests, m.Fulfilled, m.Expired, want.Requests, want.Fulfilled, want.Expired)
	}
	if m.Latency.Samples != want.Fulfilled {
		t.Fatalf("latency histogram holds %d samples, want %d", m.Latency.Samples, want.Fulfilled)
	}
	if m.Latency.Overflow != 0 {
		t.Fatalf("latency histogram overflowed %d times with buckets sized to the window", m.Latency.Overflow)
	}
	if !m.Latency.Exact {
		t.Fatal("latency stats not exact with buckets sized to the window")
	}
}

// TestBackpressure429 pins the bounded-queue contract under both clocks: once
// the arrival queue is full the daemon answers 429 with a Retry-After hint
// and keeps the already-admitted records.
func TestBackpressure429(t *testing.T) {
	for _, virtual := range []bool{true, false} {
		name := "wall_clock"
		if virtual {
			name = "virtual"
		}
		t.Run(name, func(t *testing.T) {
			_, ts := newServer(t, serve.Config{N: 2, D: 2, Virtual: virtual, QueueCap: 3})
			body := strings.Repeat(`{"alts":[0,1]}`+"\n", 5)
			code, rep, hdr := post(t, ts, body)
			if code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429", code)
			}
			if rep.Accepted != 3 {
				t.Fatalf("accepted %d, want the queue capacity 3", rep.Accepted)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			m := metrics(t, ts)
			if m.QueueDepth != 3 || m.Rejected.QueueFull != 1 {
				t.Fatalf("queue depth %d (want 3), queue_full rejections %d (want 1)", m.QueueDepth, m.Rejected.QueueFull)
			}
		})
	}
}

// TestRetryAfterScalesWithBacklog pins the Retry-After estimate against the
// actual drain time. A server with n resources serves at most n queued
// records per round, so a full queue of depth q needs ceil(q/n) rounds to
// clear; telling the client to come back after one round (the old behavior)
// guarantees another 429 and a retry stampede exactly when the daemon is
// most loaded.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	_, ts := newServer(t, serve.Config{
		N: 2, D: 2, Virtual: true, RoundDur: time.Second, QueueCap: 100,
	})
	body := strings.Repeat(`{"alts":[0,1]}`+"\n", 101)
	code, rep, hdr := post(t, ts, body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if rep.Accepted != 100 {
		t.Fatalf("accepted %d, want the queue capacity 100", rep.Accepted)
	}
	// 100 queued records at 2 per round: 50 rounds of 1s each.
	if got := hdr.Get("Retry-After"); got != "50" {
		t.Fatalf("Retry-After %q, want \"50\" (100 queued / 2 per round * 1s)", got)
	}
}

// TestRetryAfterFloorsAtOneSecond: sub-second rounds and an empty queue must
// still yield a positive, RFC-valid hint.
func TestRetryAfterFloorsAtOneSecond(t *testing.T) {
	_, ts := newServer(t, serve.Config{
		N: 2, D: 2, Virtual: true, RoundDur: 100 * time.Millisecond, QueueCap: 1,
	})
	body := strings.Repeat(`{"alts":[0,1]}`+"\n", 2)
	code, _, hdr := post(t, ts, body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	// 1 queued record drains in one 0.1s round; the hint rounds up to 1s.
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
}

// TestMalformedLineOffset pins admission control: a malformed line is
// rejected with 400 naming its byte offset within the body, everything
// before it stays admitted.
func TestMalformedLineOffset(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, Virtual: true})
	header := `{"n":2,"d":2}` + "\n"
	good := `{"alts":[0,1]}` + "\n"
	bad := `{"alts":[0,` + "\n"
	code, rep, _ := post(t, ts, header+good+bad)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if rep.Accepted != 1 {
		t.Fatalf("accepted %d, want 1", rep.Accepted)
	}
	wantOff := int64(len(header) + len(good))
	if rep.Offset == nil || *rep.Offset != wantOff {
		t.Fatalf("offset %v, want %d", rep.Offset, wantOff)
	}

	// A structurally valid record naming a resource out of range is equally
	// malformed.
	code, rep, _ = post(t, ts, `{"alts":[0,7]}`+"\n")
	if code != http.StatusBadRequest || rep.Error == "" {
		t.Fatalf("out-of-range resource: status %d error %q", code, rep.Error)
	}
	if m := metrics(t, ts); m.Rejected.Malformed != 2 {
		t.Fatalf("malformed rejections %d, want 2", m.Rejected.Malformed)
	}

	// A mismatched stream header is refused before any record.
	code, rep, _ = post(t, ts, `{"n":4,"d":2}`+"\n"+good)
	if code != http.StatusBadRequest || rep.Accepted != 0 {
		t.Fatalf("header mismatch: status %d accepted %d", code, rep.Accepted)
	}

	// A body ending mid-record is a torn tail, same contract as trace files.
	code, rep, _ = post(t, ts, good+`{"alts":[0`)
	if code != http.StatusBadRequest || rep.Accepted != 1 || rep.Offset == nil || *rep.Offset != int64(len(good)) {
		t.Fatalf("torn tail: status %d accepted %d offset %v", code, rep.Accepted, rep.Offset)
	}
}

// TestMalformedLinePastFirstBatch pins that batched admission keeps the
// record-at-a-time contract across batch boundaries: a malformed line at
// index 300 lies past the first 256-record batch, yet the reply names exactly
// the 300 records before it as accepted, gives the line's byte offset, and
// those records stay admitted.
func TestMalformedLinePastFirstBatch(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, Virtual: true, QueueCap: 1 << 10})
	const good = `{"alts":[0,1]}` + "\n"
	var sb strings.Builder
	for i := 0; i < 600; i++ {
		if i == 300 {
			sb.WriteString(`{"alts":[0,` + "\n")
			continue
		}
		sb.WriteString(good)
	}
	code, rep, _ := post(t, ts, sb.String())
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if want := int64(300 * len(good)); rep.Accepted != 300 || rep.Offset == nil || *rep.Offset != want {
		t.Fatalf("accepted %d offset %v, want 300 accepted at offset %d", rep.Accepted, rep.Offset, want)
	}
	if m := drain(t, ts); m.Requests != 300 || m.Rejected.Malformed != 1 {
		t.Fatalf("drained requests %d malformed %d, want 300 and 1", m.Requests, m.Rejected.Malformed)
	}
}

// TestVirtualOutOfOrder pins the virtual-clock ordering contract: a record
// for a round the engine has already closed is rejected, not silently
// reassigned.
func TestVirtualOutOfOrder(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, Virtual: true})
	code, rep, _ := post(t, ts, `{"t":5,"alts":[0,1]}`+"\n"+`{"t":3,"alts":[0,1]}`+"\n")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if rep.Accepted != 1 || !strings.Contains(rep.Error, "closed") {
		t.Fatalf("accepted %d error %q", rep.Accepted, rep.Error)
	}
}

// TestVirtualRoundJumpCap pins the virtual-clock jump bound: a record may
// arrive at most MaxRoundJump rounds past the engine's next round, so one
// record cannot make the engine step an unbounded run of empty rounds.
func TestVirtualRoundJumpCap(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, Virtual: true})
	far := fmt.Sprintf(`{"t":%d,"alts":[0,1]}`+"\n", serve.MaxRoundJump+1)
	code, rep, _ := post(t, ts, `{"alts":[0,1]}`+"\n"+far)
	if code != http.StatusBadRequest || rep.Accepted != 1 || !strings.Contains(rep.Error, "rounds past") {
		t.Fatalf("far arrival: status %d accepted %d error %q", code, rep.Accepted, rep.Error)
	}
	if m := metrics(t, ts); m.Rejected.Malformed != 1 {
		t.Fatalf("malformed rejections %d, want 1", m.Rejected.Malformed)
	}
	edge := fmt.Sprintf(`{"t":%d,"alts":[0,1]}`+"\n", serve.MaxRoundJump)
	if code, rep, _ = post(t, ts, edge); code != http.StatusOK || rep.Accepted != 1 {
		t.Fatalf("arrival at the bound: status %d accepted %d (%s)", code, rep.Accepted, rep.Error)
	}
}

// TestWallClockTick drives the wall-clock mode deterministically (RoundDur 0
// disables the ticker): queued arrivals join the round of the next tick, and
// a client-stamped record whose window already ran out is dead on arrival.
func TestWallClockTick(t *testing.T) {
	s, ts := newServer(t, serve.Config{N: 2, D: 2})
	code, rep, _ := post(t, ts, `{"alts":[0,1]}`+"\n"+`{"alts":[1,0]}`+"\n")
	if code != http.StatusOK || rep.Accepted != 2 {
		t.Fatalf("status %d accepted %d", code, rep.Accepted)
	}
	if m := metrics(t, ts); m.QueueDepth != 2 || m.Round != 0 {
		t.Fatalf("before tick: queue %d round %d", m.QueueDepth, m.Round)
	}
	s.Tick()
	m := metrics(t, ts)
	if m.QueueDepth != 0 || m.Round != 1 || m.Requests != 2 {
		t.Fatalf("after tick: queue %d round %d requests %d", m.QueueDepth, m.Round, m.Requests)
	}
	if m.Fulfilled != 2 {
		t.Fatalf("two requests naming both resources should be served in round 0, got %d", m.Fulfilled)
	}

	// A t=0 stamp is indistinguishable from an unstamped record (the JSON
	// zero value), so expiry is only checked for positive stamps: tick to
	// round 2, then a record stamped t=1 with window 1 is dead on arrival.
	s.Tick()
	code, rep, _ = post(t, ts, `{"t":1,"d":1,"alts":[0,1]}`+"\n")
	if code != http.StatusBadRequest || !strings.Contains(rep.Error, "expired") {
		t.Fatalf("expired-on-arrival: status %d error %q", code, rep.Error)
	}
	if m := metrics(t, ts); m.Rejected.Expired != 1 {
		t.Fatalf("expired rejections %d, want 1", m.Rejected.Expired)
	}
}

// TestDrainSemantics pins graceful shutdown: drain refuses new records, is
// idempotent, and reports final totals.
func TestDrainSemantics(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 3, Virtual: true})
	if code, rep, _ := post(t, ts, `{"alts":[0,1]}`+"\n"); code != http.StatusOK || rep.Accepted != 1 {
		t.Fatalf("seed ingest failed: %d %v", code, rep)
	}
	m := drain(t, ts)
	if !m.Finished || !m.Draining {
		t.Fatalf("drain metrics not final: %+v", m)
	}
	if m.Requests != 1 || m.Fulfilled != 1 || m.Pending != 0 {
		t.Fatalf("drained totals requests=%d fulfilled=%d pending=%d", m.Requests, m.Fulfilled, m.Pending)
	}
	if m.Rolling.Solved != 1 || m.Rolling.Opt != 1 || m.Rolling.Alg != 1 || m.Rolling.Ratio != "1.0000" {
		t.Fatalf("rolling ratio after drain: %+v", m.Rolling)
	}
	code, rep, _ := post(t, ts, `{"alts":[0,1]}`+"\n")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after drain: status %d, want 503 (%s)", code, rep.Error)
	}
	if again := drain(t, ts); again.Requests != m.Requests || again.Fulfilled != m.Fulfilled {
		t.Fatalf("drain is not idempotent: %+v vs %+v", again, m)
	}
}

// TestCRLFIngest ties the CRLF scanner fix to the network path: a client
// uploading CRLF-terminated lines is indistinguishable from an LF one.
func TestCRLFIngest(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, Virtual: true})
	body := "{\"n\":2,\"d\":2}\r\n{\"alts\":[0,1]}\r\n{\"t\":1,\"alts\":[1,0]}\r\n"
	code, rep, _ := post(t, ts, body)
	if code != http.StatusOK || rep.Accepted != 2 {
		t.Fatalf("CRLF ingest: status %d accepted %d (%s)", code, rep.Accepted, rep.Error)
	}
}

// TestPrometheusExposition smoke-tests the text format: key series present,
// one value spot-checked.
func TestPrometheusExposition(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, Virtual: true})
	post(t, ts, `{"alts":[0,1]}`+"\n")
	drain(t, ts)
	resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		"reqsched_fulfilled_total 1",
		"reqsched_rolling_competitive_ratio 1.0000",
		`reqsched_rejected_total{reason="queue_full"} 0`,
		`reqsched_resource_served_total{resource="0"}`,
		"reqsched_latency_rounds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}

// TestConcurrentIngest hammers the daemon from several goroutines (all
// records for the same round, so admission order is immaterial) — primarily
// a race-detector target for the mutex and the ratio worker.
func TestConcurrentIngest(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 4, D: 4, Virtual: true, QueueCap: 1 << 14})
	const clients, per = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := strings.Repeat(`{"alts":[0,1]}`+"\n", per)
			resp, err := http.Post(ts.URL+"/v1/requests", "application/jsonl", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	m := drain(t, ts)
	if m.Requests != clients*per {
		t.Fatalf("admitted %d, want %d", m.Requests, clients*per)
	}
	if m.Fulfilled+m.Expired != m.Requests {
		t.Fatalf("fulfilled %d + expired %d != requests %d", m.Fulfilled, m.Expired, m.Requests)
	}
}

// TestConcurrentWallClockIngestRace hammers the wall-clock arrival queue from
// 8 goroutines while a spinning ticker advances rounds and a drain cuts in
// mid-traffic — the race-detector target for admission, the tick and the
// drain handoff. Accounting must balance exactly: every accepted record is
// either fulfilled or expired, and none is admitted after the drain.
func TestConcurrentWallClockIngestRace(t *testing.T) {
	s, ts := newServer(t, serve.Config{N: 4, D: 4, QueueCap: 1 << 14})
	const clients = 8
	var accepted atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	tickerDone := make(chan struct{})

	go func() { // ticker, stopped after the clients finish
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.Tick()
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 30; i++ {
				resp, err := http.Post(ts.URL+"/v1/requests", "application/jsonl",
					strings.NewReader(wallBody(rng, 4, 20)))
				if err != nil {
					continue // connection cut by test shutdown
				}
				var rep ingestReply
				if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil && len(b) > 0 {
					_ = json.Unmarshal(b, &rep)
				}
				resp.Body.Close()
				accepted.Add(int64(rep.Accepted))
				if i == 15 && c == 0 {
					s.Drain() // drain mid-traffic from one client
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-tickerDone

	m := drain(t, ts)
	if int64(m.Requests) != accepted.Load() {
		t.Fatalf("server admitted %d, clients saw %d accepted", m.Requests, accepted.Load())
	}
	if m.Fulfilled+m.Expired != m.Requests || m.Pending != 0 {
		t.Fatalf("fulfilled %d + expired %d != requests %d (pending %d)",
			m.Fulfilled, m.Expired, m.Requests, m.Pending)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", m.QueueDepth)
	}
}

// wallBody builds one POST body of unstamped wall-clock records, each naming
// two distinct resources.
func wallBody(rng *rand.Rand, n, recs int) string {
	var sb strings.Builder
	for i := 0; i < recs; i++ {
		a := rng.Intn(n)
		c := rng.Intn(n - 1)
		if c >= a {
			c++
		}
		fmt.Fprintf(&sb, `{"alts":[%d,%d]}`+"\n", a, c)
	}
	return sb.String()
}

// TestConfigValidation pins New's input checks.
func TestConfigValidation(t *testing.T) {
	for _, cfg := range []serve.Config{
		{N: 0, D: 2, Strategy: strategies.NewBalance()},
		{N: 2, D: 0, Strategy: strategies.NewBalance()},
		{N: 2, D: 2},
		{N: 2, D: 4, MaxD: 2, Strategy: strategies.NewBalance()},
		{N: 2, D: 2, QueueCap: -1, Strategy: strategies.NewBalance()},
	} {
		if _, err := serve.New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
}

// TestWindowCap pins the MaxD admission bound: a record asking for a longer
// window than the daemon's schedule lookahead is refused, not clamped.
func TestWindowCap(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, MaxD: 3, Virtual: true})
	code, rep, _ := post(t, ts, `{"d":4,"alts":[0,1]}`+"\n")
	if code != http.StatusBadRequest || !strings.Contains(rep.Error, "maximum") {
		t.Fatalf("oversized window: status %d error %q", code, rep.Error)
	}
	if code, rep, _ = post(t, ts, `{"d":3,"alts":[0,1]}`+"\n"); code != http.StatusOK || rep.Accepted != 1 {
		t.Fatalf("window at the cap: status %d accepted %d (%s)", code, rep.Accepted, rep.Error)
	}
}
