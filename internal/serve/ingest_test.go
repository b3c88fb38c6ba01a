package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/serve"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// TestIngestHeaderDetection pins which first lines count as a stream header:
// encoding/json's case-insensitive key matching applies, a header whose n, d
// or service model differs from the daemon's is refused, and a body that
// opens with a record admits it.
func TestIngestHeaderDetection(t *testing.T) {
	const rec = `{"t":0,"alts":[1,2]}` + "\n"
	hold2 := core.ServiceModel{Hold: 2, Cap: 1}
	for _, tc := range []struct {
		name, body string
		model      core.ServiceModel
		status     int
		accepted   int
		errPart    string
	}{
		{"header", `{"n":16,"d":4}` + "\n" + rec, core.ServiceModel{}, http.StatusOK, 1, ""},
		{"upper-case header", `{"N":16,"D":4}` + "\n" + rec, core.ServiceModel{}, http.StatusOK, 1, ""},
		{"mismatched header", `{"n":8,"d":4}` + "\n" + rec, core.ServiceModel{}, http.StatusBadRequest, 0, "stream header n=8 d=4 does not match server n=16 d=4"},
		{"record first", rec + rec, core.ServiceModel{}, http.StatusOK, 2, ""},
		{"header after a record", rec + `{"n":16,"d":4}` + "\n", core.ServiceModel{}, http.StatusBadRequest, 1, "stream request 1 has no alternatives"},
		{"hold header to a unit server", `{"n":16,"d":4,"hold":2,"cap":1}` + "\n" + rec, core.ServiceModel{}, http.StatusBadRequest, 0,
			"stream header n=16 d=4 hold=2,cap=1 does not match server n=16 d=4"},
		{"unit header to a hold server", `{"n":16,"d":4}` + "\n" + rec, hold2, http.StatusBadRequest, 0,
			"stream header n=16 d=4 does not match server n=16 d=4 hold=2,cap=1"},
		{"hold header to a hold server", `{"n":16,"d":4,"hold":2}` + "\n" + rec, hold2, http.StatusOK, 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serve.Config{N: 16, D: 4, Virtual: true, Model: tc.model}
			if !tc.model.IsUnit() {
				cfg.Strategy = strategies.NewFirstFit()
			}
			_, ts := newServer(t, cfg)
			status, rep, _ := post(t, ts, tc.body)
			if status != tc.status || rep.Accepted != tc.accepted || !strings.Contains(rep.Error, tc.errPart) {
				t.Fatalf("status %d, reply %+v; want status %d, %d accepted, error containing %q",
					status, rep, tc.status, tc.accepted, tc.errPart)
			}
		})
	}
}

// TestIngestAllocsPerRecord bounds heap allocations per record on a warm
// daemon ingesting 1024-record virtual-clock bodies in process. Scanning and
// decoding take none; what remains is admission and the engine, about 1.01
// per record (Go 1.24, linux/amd64), so the bound leaves headroom while
// still catching the 9 a reflective decode of every line costs.
func TestIngestAllocsPerRecord(t *testing.T) {
	const maxAllocsPerRecord = 3
	tr := workload.Bursty(workload.Config{N: 16, D: 4, Rounds: 600, Seed: 9}, 4, 8, 50)
	var body []byte
	var bodies [][]byte
	for i, r := range tr.Requests() {
		body = fmt.Appendf(body, `{"t":%d,"alts":[`, r.Arrive)
		for j, a := range r.Alts {
			if j > 0 {
				body = append(body, ',')
			}
			body = fmt.Appendf(body, "%d", a)
		}
		body = append(body, "]}\n"...)
		if (i+1)%1024 == 0 {
			bodies = append(bodies, body)
			body = nil
		}
	}
	if len(bodies) < 3 {
		t.Fatalf("only %d full bodies", len(bodies))
	}
	s, err := serve.New(serve.Config{N: 16, D: 4, Virtual: true, Strategy: strategies.NewBalance()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := make([]*http.Request, len(bodies))
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(b))
		recs[i] = httptest.NewRecorder()
	}
	s.ServeHTTP(recs[0], reqs[0]) // warm the decode buffers and the engine
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < len(reqs); i++ {
		s.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i, rr := range recs {
		if rr.Code != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i, rr.Code, rr.Body)
		}
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(1024*(len(reqs)-1))
	t.Logf("%.2f allocations per record over %d bodies", perRecord, len(reqs)-1)
	if perRecord > maxAllocsPerRecord {
		t.Fatalf("%.2f allocations per record, want at most %d", perRecord, maxAllocsPerRecord)
	}
}

// replyWriter is an http.ResponseWriter that keeps one header map and one
// body buffer across calls, so it allocates nothing of its own once warm.
type replyWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *replyWriter) Header() http.Header { return w.h }
func (w *replyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *replyWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

// TestIngestAllocsPerPost pins ingest's allocations on a warm virtual-clock
// daemon at one per admitted record (the request and its two alternatives
// share one object) and none per POST. Each body is one round of 16
// two-choice records, D+1 rounds after the last, so every POST closes the
// previous segment and the rolling-OPT matcher rewinds instead of growing;
// the bodies differ only in that round. At 1.05 per record a single
// allocation per POST (0.0625 per record) fails the pin. The GC is off and
// GOMAXPROCS is 1 while measuring, so the pools keep their values and every
// Get finds the value the previous Put left on the same P; a yield after
// each POST lets the optimum worker return its batch, as a worker that keeps
// up with ingest does.
func TestIngestAllocsPerPost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled values at random")
	}
	const (
		n, d             = 16, 4
		recsPerBody      = 16
		warm, measured   = 8, 64
		maxAllocsPerRec  = 1.05
		roundsPerSegment = d + 1
	)
	s, err := serve.New(serve.Config{N: n, D: d, Virtual: true, Strategy: strategies.NewBalance()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := make([]*http.Request, warm+measured)
	for k := range reqs {
		var body []byte
		for j := range recsPerBody {
			body = fmt.Appendf(body, `{"t":%d,"alts":[%d,%d]}`+"\n", k*roundsPerSegment, j%n, (5*j+3)%n)
		}
		reqs[k] = httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body))
	}
	w := &replyWriter{h: make(http.Header)}
	send := func(k int) {
		w.code = 0
		w.body.Reset()
		s.ServeHTTP(w, reqs[k])
		if w.code != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", k, w.code, w.body.String())
		}
		runtime.Gosched() // let the optimum worker recycle the batch it was sent
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for k := range warm {
		send(k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := warm; k < warm+measured; k++ {
		send(k)
	}
	runtime.ReadMemStats(&after)
	records := recsPerBody * measured
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(records)
	t.Logf("%.4f allocations per record over %d POSTs of %d records", perRecord, measured, recsPerBody)
	if perRecord > maxAllocsPerRec {
		t.Fatalf("%.4f allocations per record, want at most %.2f", perRecord, maxAllocsPerRec)
	}
	if m := s.Drain(); m.Requests != recsPerBody*(warm+measured) {
		t.Fatalf("drained %d requests, want %d", m.Requests, recsPerBody*(warm+measured))
	}
}

// endlessLine is a request body of n bytes of 'x' with no newline, counting
// how many bytes the reader has handed out.
type endlessLine struct {
	n, read int
}

func (r *endlessLine) Read(p []byte) (int, error) {
	if r.read >= r.n {
		return 0, io.EOF
	}
	k := min(len(p), r.n-r.read)
	for i := range p[:k] {
		p[i] = 'x'
	}
	r.read += k
	return k, nil
}

// TestIngestLineCap pins the ingest line cap: a client that never sends a
// newline is refused with 400, the line's offset and a malformed count once
// the line passes the cap, instead of the daemon buffering its whole body.
func TestIngestLineCap(t *testing.T) {
	s, err := serve.New(serve.Config{N: 2, D: 2, Virtual: true, Strategy: strategies.NewBalance()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := `{"alts":[0,1]}` + "\n"
	body := &endlessLine{n: 8 << 20}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/requests",
		io.MultiReader(strings.NewReader(good), body)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rr.Code, rr.Body)
	}
	if limit := serve.MaxLineBytes + 64<<10; body.read > limit {
		t.Fatalf("read %d bytes of the unterminated line, want at most %d", body.read, limit)
	}
	var rep ingestReply
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 || rep.Offset == nil || *rep.Offset != int64(len(good)) || !strings.Contains(rep.Error, "exceeds") {
		t.Fatalf("reply %+v (offset %v), want 1 accepted and the long line at offset %d", rep, rep.Offset, len(good))
	}
	if m := s.Metrics(); m.Rejected.Malformed != 1 || m.Requests != 1 {
		t.Fatalf("malformed %d requests %d, want 1 and 1", m.Rejected.Malformed, m.Requests)
	}
}

// FuzzIngestBody feeds arbitrary bodies to the ingest handler under both
// clocks. Whatever the body, ServeHTTP must not panic, must answer with
// exactly one JSON ingest reply, and after Drain the admitted count must
// equal the accepted counts with every admitted request either fulfilled or
// expired. A fixed clean body POSTed next goes through the pooled batch and
// reader the fuzzed body left behind, and must get the same reply and leave
// the same counters as on a second server that took the same fuzzed body
// and serves the clean one on fresh per-call state: nothing a torn tail, an
// overlong line, a mismatched header or a rejection leaves in the pool may
// reach the next POST.
func FuzzIngestBody(f *testing.F) {
	const clean = `{"t":64,"alts":[0,1]}` + "\n" + `{"t":64,"alts":[2,3]}` + "\n" + `{"t":65,"d":3,"alts":[1,2]}` + "\n"
	for _, seed := range []string{
		`{"n":4,"d":2}` + "\n" + `{"alts":[0,1]}` + "\n" + `{"t":1,"alts":[2,3]}` + "\n",
		"{\"n\":4,\"d\":2}\r\n{\"alts\":[0,1]}\r\n{\"t\":1,\"alts\":[1,0]}\r\n",
		`{"alts":[0,1]}` + "\n" + `{"alts":[0,` + "\n",
		`{"d":4,"alts":[0,1]}` + "\n" + `{"d":3,"alts":[0,1]}` + "\n",
		strings.Repeat(`{"alts":[0,1]}`+"\n", 10),
		`{"t":5,"alts":[0,1]}` + "\n" + `{"t":3,"alts":[0,1]}` + "\n",
		`{"t":1,"d":1,"w":2,"alts":[3]}` + "\n" + `{"alts":[0`,
		`{"alts":[0,1]}` + "\n" + strings.Repeat("x", serve.MaxLineBytes+1),
		`{"n":5,"d":2}` + "\n" + `{"alts":[0,1]}` + "\n",
		`{"n":4,"d":2,"hold":2,"cap":1}` + "\n" + `{"alts":[0,1]}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	// engineState is a snapshot without the rolling optimum the background
	// worker folds in at its own pace.
	engineState := func(m serve.Metrics) serve.Metrics {
		m.Rolling = serve.RollingRatio{Closed: m.Rolling.Closed}
		return m
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, virtual := range []bool{true, false} {
			var srv [2]*serve.Server
			var fuzzed [2]*httptest.ResponseRecorder
			for i := range srv {
				s, err := serve.New(serve.Config{
					N: 4, D: 2, MaxD: 3, QueueCap: 8, Virtual: virtual, Strategy: strategies.NewBalance(),
				})
				if err != nil {
					t.Fatal(err)
				}
				srv[i] = s
				fuzzed[i] = httptest.NewRecorder()
				s.ServeHTTP(fuzzed[i], httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body)))
			}
			pooled, fresh := srv[0], srv[1]
			dec := json.NewDecoder(fuzzed[0].Body)
			dec.DisallowUnknownFields()
			var rep ingestReply
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("virtual=%v: status %d, reply not JSON: %v", virtual, fuzzed[0].Code, err)
			}
			if _, err := dec.Token(); err != io.EOF {
				t.Fatalf("virtual=%v: trailing data after the reply (%v)", virtual, err)
			}
			if before, ref := engineState(pooled.Metrics()), engineState(fresh.Metrics()); !reflect.DeepEqual(before, ref) {
				t.Fatalf("virtual=%v: the same body left different states:\n%+v\n%+v", virtual, before, ref)
			}

			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			pooled.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(clean)))
			fresh.IngestFresh(want, httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(clean)))
			if got.Code != want.Code || got.Body.String() != want.Body.String() || !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Fatalf("virtual=%v: clean body after pooled reuse: status %d %v %q; on fresh state: status %d %v %q",
					virtual, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
			}
			if after, ref := engineState(pooled.Metrics()), engineState(fresh.Metrics()); !reflect.DeepEqual(after, ref) {
				t.Fatalf("virtual=%v: clean body after pooled reuse left\n%+v\non fresh state\n%+v", virtual, after, ref)
			}
			var cleanRep ingestReply
			if err := json.Unmarshal(got.Body.Bytes(), &cleanRep); err != nil {
				t.Fatalf("virtual=%v: clean reply not JSON: %v", virtual, err)
			}

			m, ref := pooled.Drain(), fresh.Drain()
			if m.Requests != rep.Accepted+cleanRep.Accepted || m.Fulfilled+m.Expired != m.Requests {
				t.Fatalf("virtual=%v: status %d accepted %d then %d, drained requests %d fulfilled %d expired %d",
					virtual, fuzzed[0].Code, rep.Accepted, cleanRep.Accepted, m.Requests, m.Fulfilled, m.Expired)
			}
			if !reflect.DeepEqual(m, ref) {
				t.Fatalf("virtual=%v: drained after pooled reuse\n%+v\non fresh state\n%+v", virtual, m, ref)
			}
		}
	})
}
