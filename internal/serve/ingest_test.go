package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"reqsched/internal/serve"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// TestIngestHeaderDetection pins which first lines count as a stream header:
// encoding/json's case-insensitive key matching applies, a mismatched header
// is refused, and a body that opens with a record admits it.
func TestIngestHeaderDetection(t *testing.T) {
	const rec = `{"t":0,"alts":[1,2]}` + "\n"
	for _, tc := range []struct {
		name, body string
		status     int
		accepted   int
		errPart    string
	}{
		{"header", `{"n":16,"d":4}` + "\n" + rec, http.StatusOK, 1, ""},
		{"upper-case header", `{"N":16,"D":4}` + "\n" + rec, http.StatusOK, 1, ""},
		{"mismatched header", `{"n":8,"d":4}` + "\n" + rec, http.StatusBadRequest, 0, "stream header n=8 d=4 does not match server n=16 d=4"},
		{"record first", rec + rec, http.StatusOK, 2, ""},
		{"header after a record", rec + `{"n":16,"d":4}` + "\n", http.StatusBadRequest, 1, "stream request 1 has no alternatives"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newServer(t, serve.Config{N: 16, D: 4, Virtual: true})
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
// decoding take none; what remains is admission and the engine, about 2.05
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
// equal the reply's accepted count with every admitted request either
// fulfilled or expired.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		`{"n":4,"d":2}` + "\n" + `{"alts":[0,1]}` + "\n" + `{"t":1,"alts":[2,3]}` + "\n",
		"{\"n\":4,\"d\":2}\r\n{\"alts\":[0,1]}\r\n{\"t\":1,\"alts\":[1,0]}\r\n",
		`{"alts":[0,1]}` + "\n" + `{"alts":[0,` + "\n",
		`{"d":4,"alts":[0,1]}` + "\n" + `{"d":3,"alts":[0,1]}` + "\n",
		strings.Repeat(`{"alts":[0,1]}`+"\n", 10),
		`{"t":5,"alts":[0,1]}` + "\n" + `{"t":3,"alts":[0,1]}` + "\n",
		`{"t":1,"d":1,"w":2,"alts":[3]}` + "\n" + `{"alts":[0`,
		`{"alts":[0,1]}` + "\n" + strings.Repeat("x", serve.MaxLineBytes+1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, virtual := range []bool{true, false} {
			s, err := serve.New(serve.Config{
				N: 4, D: 2, MaxD: 3, QueueCap: 8, Virtual: virtual, Strategy: strategies.NewBalance(),
			})
			if err != nil {
				t.Fatal(err)
			}
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body)))
			dec := json.NewDecoder(rr.Body)
			dec.DisallowUnknownFields()
			var rep ingestReply
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("virtual=%v: status %d, reply not JSON: %v", virtual, rr.Code, err)
			}
			if _, err := dec.Token(); err != io.EOF {
				t.Fatalf("virtual=%v: trailing data after the reply (%v)", virtual, err)
			}
			m := s.Drain()
			if m.Requests != rep.Accepted || m.Fulfilled+m.Expired != m.Requests {
				t.Fatalf("virtual=%v: status %d accepted %d, drained requests %d fulfilled %d expired %d",
					virtual, rr.Code, rep.Accepted, m.Requests, m.Fulfilled, m.Expired)
			}
		}
	})
}
