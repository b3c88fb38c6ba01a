package serve_test

import (
	"bytes"
	"fmt"
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
