// HTTP surface of the serve daemon. Ingest speaks the JSONL trace stream
// wire format line by line, so the same file tracegen writes (or any client
// emitting records) can be POSTed verbatim — header line included.
package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"reqsched/internal/core"
	"reqsched/internal/trace"
)

// ServeHTTP routes the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/requests" && r.Method == http.MethodPost:
		s.handleIngest(w, r)
	case r.URL.Path == "/v1/metrics" && r.Method == http.MethodGet:
		s.handleMetrics(w, r)
	case r.URL.Path == "/v1/drain" && r.Method == http.MethodPost:
		s.handleDrain(w)
	case r.URL.Path == "/v1/healthz" && r.Method == http.MethodGet:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	default:
		http.NotFound(w, r)
	}
}

// ingestReply is the JSON body of every ingest response. Accepted counts the
// records admitted before the first rejection; Offset names the byte offset
// of the offending line within the request body, so clients can resume a
// partial upload exactly like a torn-tail trace file.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
	Offset   *int64 `json:"offset,omitempty"`
}

// ingestBatchSize is how many records one ingest connection decodes before
// admitting them under a single engine-lock acquisition. Admission order and
// verdicts are those of record-at-a-time admission; batching only changes how
// often the lock is taken.
const ingestBatchSize = 256

// maxLineBytes caps one ingest line, terminator included. A record's
// alternatives are distinct resources, so a real record is far shorter; the
// cap only stops a client that never sends a newline from making the daemon
// buffer its whole body.
const maxLineBytes = 1 << 20

// ingestBatch is one ingest call's pooled state: the line reader, up to
// ingestBatchSize decoded records plus each line's byte offset, the count of
// records admitted so far and the reply. Record slots keep their Alts
// capacity across batches and calls, so a warm daemon reads, scans and
// decodes canonical record lines and answers a clean POST without
// allocating (lines in any other JSON spelling take encoding/json's
// allocating path); admission copies the alternatives out.
type ingestBatch struct {
	br       *bufio.Reader
	recs     []trace.StreamRecord
	offs     []int64
	accepted int
	reply    ingestReply
}

func newIngestBatch() *ingestBatch { return &ingestBatch{br: bufio.NewReader(nil)} }

var ingestPool = sync.Pool{New: func() any { return newIngestBatch() }}

// release empties b, drops its reference to the request body and returns it
// to the pool.
func (b *ingestBatch) release() {
	b.br.Reset(nil)
	b.recs = b.recs[:0]
	b.offs = b.offs[:0]
	b.accepted = 0
	b.reply = ingestReply{}
	ingestPool.Put(b)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	b := ingestPool.Get().(*ingestBatch)
	defer b.release()
	s.ingest(w, r, b)
}

// ingest reads, admits and answers one ingest call on the per-call state b.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, b *ingestBatch) {
	b.br.Reset(r.Body)
	var off int64
	sawHeader := false
	index := 0
	for {
		line, next, err := trace.ScanJSONLineMax(b.br, off, maxLineBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Intact lines before the failure still admit (a rejection among
			// them takes precedence — the client resolves it first).
			if !b.admit(s, w) {
				return
			}
			// A torn final line: the client got cut off mid-record. Reject
			// the tail but keep everything before it.
			if torn, ok := err.(*trace.TornTail); ok {
				b.fail(s, w, http.StatusBadRequest, torn.Offset, "torn final line (no newline)")
				return
			}
			if long, ok := err.(*trace.LineTooLong); ok {
				s.countReject(&s.rej.Malformed)
				b.fail(s, w, http.StatusBadRequest, long.Offset, "line exceeds %d bytes", long.Max)
				return
			}
			b.fail(s, w, http.StatusBadRequest, off, "read: %v", err)
			return
		}
		lineOff := off
		off = next
		// Extend by one slot, reviving a previous batch's slot (and its Alts
		// buffer) when capacity allows.
		if len(b.recs) < cap(b.recs) {
			b.recs = b.recs[:len(b.recs)+1]
		} else {
			b.recs = append(b.recs, trace.StreamRecord{})
		}
		if err := trace.DecodeStreamRecordInto(&b.recs[len(b.recs)-1], line, s.cfg.N, s.cfg.D, index); err != nil {
			b.recs = b.recs[:len(b.recs)-1]
			// A leading stream header is allowed (so a trace file POSTs
			// verbatim) but must match the daemon's contract, service model
			// included. Only a line that is not a record is probed: a record
			// always carries alternatives, so the header decoder would refuse
			// it anyway.
			if !sawHeader && index == 0 {
				if n, d, m, err := trace.DecodeStreamHeader(line); err == nil {
					sawHeader = true
					if n != s.cfg.N || d != s.cfg.D || m != s.cfg.Model {
						b.fail(s, w, http.StatusBadRequest, lineOff,
							"stream header %s does not match server %s",
							contract(n, d, m), contract(s.cfg.N, s.cfg.D, s.cfg.Model))
						return
					}
					continue
				}
			}
			if !b.admit(s, w) {
				return
			}
			s.countReject(&s.rej.Malformed)
			b.fail(s, w, http.StatusBadRequest, lineOff, "%v", err)
			return
		}
		b.offs = append(b.offs, lineOff)
		index++
		if len(b.recs) >= ingestBatchSize && !b.admit(s, w) {
			return
		}
	}
	if !b.admit(s, w) {
		return
	}
	b.reply.Accepted = b.accepted
	writeJSON(w, http.StatusOK, &b.reply)
}

// admit pushes the decoded batch through admission under one engine-lock
// acquisition and empties it. Record-at-a-time verdicts and order are
// preserved exactly; on a rejection everything admitted before it stays, the
// failing record's error reply is written and admit reports false.
func (b *ingestBatch) admit(s *Server, w http.ResponseWriter) bool {
	n := 0
	verdict := admitOK
	s.mu.Lock()
	for _, rec := range b.recs {
		if verdict = s.admitLocked(rec); verdict != admitOK {
			break
		}
		n++
	}
	s.mu.Unlock()
	b.accepted += n
	if verdict != admitOK {
		b.failVerdict(s, w, b.recs[n], b.offs[n], verdict)
	}
	b.recs = b.recs[:0]
	b.offs = b.offs[:0]
	return verdict == admitOK
}

// failVerdict writes the error reply for a record admitLocked refused.
func (b *ingestBatch) failVerdict(s *Server, w http.ResponseWriter, rec trace.StreamRecord, lineOff int64, verdict admitVerdict) {
	switch verdict {
	case admitDraining:
		b.fail(s, w, http.StatusServiceUnavailable, lineOff, "server is draining")
	case admitQueueFull:
		b.fail(s, w, http.StatusTooManyRequests, lineOff,
			"arrival queue full (%d)", s.cfg.QueueCap)
	case admitOutOfOrder:
		b.fail(s, w, http.StatusBadRequest, lineOff,
			"arrival round %d is already closed (next round %d)", rec.T, s.nextRound())
	case admitExpired:
		b.fail(s, w, http.StatusBadRequest, lineOff,
			"record expired on arrival: deadline %d before round %d", rec.Deadline(), s.nextRound())
	case admitWindow:
		b.fail(s, w, http.StatusBadRequest, lineOff,
			"window %d exceeds server maximum %d", rec.D, s.cfg.MaxD)
	case admitTooFar:
		b.fail(s, w, http.StatusBadRequest, lineOff,
			"arrival round %d is more than %d rounds past round %d", rec.T, maxRoundJump, s.nextRound())
	}
}

// fail writes an error reply carrying the records accepted so far; a 400
// names the offending line's byte offset.
func (b *ingestBatch) fail(s *Server, w http.ResponseWriter, status int, lineOff int64, format string, args ...any) {
	b.reply = ingestReply{Accepted: b.accepted, Error: fmt.Sprintf(format, args...)}
	if status == http.StatusBadRequest {
		b.reply.Offset = &lineOff
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	}
	writeJSON(w, status, &b.reply)
}

// countReject bumps one rejection counter under the engine mutex, for
// rejections found outside admitLocked.
func (s *Server) countReject(c *int) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// contract spells a stream contract for a header mismatch reply, naming the
// service model only when it is not the unit model.
func contract(n, d int, m core.ServiceModel) string {
	if m.IsUnit() {
		return fmt.Sprintf("n=%d d=%d", n, d)
	}
	return fmt.Sprintf("n=%d d=%d %s", n, d, m)
}

func (s *Server) nextRound() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Round()
}

// retryAfter estimates (in whole seconds, minimum 1) when the queue will
// have drained. The n resources serve at most n queued records per round, so
// a backlog of depth q needs ceil(q/n) rounds; hinting a single round
// regardless of depth (the old behavior) invites a retry stampede exactly
// when the daemon is most loaded. Takes s.mu itself: the ingest failure path
// calls it after releasing the lock.
func (s *Server) retryAfter() int {
	if s.cfg.RoundDur <= 0 {
		return 1
	}
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	rounds := (depth + s.cfg.N - 1) / s.cfg.N
	if rounds < 1 {
		rounds = 1
	}
	secs := int(math.Ceil(float64(rounds) * s.cfg.RoundDur.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, m)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleDrain(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, s.Drain())
}

// formatFloat renders a ratio for the text exposition format; Prometheus
// spells infinities "+Inf"/"-Inf".
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'f', 4, 64)
}

// jsonContentType is every JSON reply's Content-Type header value. Assigning
// it to the header map directly skips the slice Header().Set allocates per
// call.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writePrometheus renders the snapshot in the Prometheus text exposition
// format — hand-rolled, since the daemon takes no dependencies beyond the
// standard library.
func writePrometheus(w io.Writer, m Metrics) {
	g := func(name string, v any, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	g("reqsched_round", m.Round, "Next round the engine will simulate.")
	g("reqsched_requests_total", m.Requests, "Requests admitted to the engine.")
	g("reqsched_fulfilled_total", m.Fulfilled, "Requests served within their window.")
	g("reqsched_expired_total", m.Expired, "Requests that ran out their window.")
	g("reqsched_pending", m.Pending, "Live requests awaiting service.")
	g("reqsched_queue_depth", m.QueueDepth, "Arrivals queued for the next round.")
	fmt.Fprintf(w, "# HELP reqsched_rejected_total Records rejected at ingest.\n# TYPE reqsched_rejected_total counter\n")
	for _, rc := range []struct {
		reason string
		n      int
	}{
		{"malformed", m.Rejected.Malformed},
		{"queue_full", m.Rejected.QueueFull},
		{"expired", m.Rejected.Expired},
		{"draining", m.Rejected.Draining},
	} {
		fmt.Fprintf(w, "reqsched_rejected_total{reason=%q} %d\n", rc.reason, rc.n)
	}
	fmt.Fprintf(w, "# HELP reqsched_resource_served_total Fulfillments per resource.\n# TYPE reqsched_resource_served_total counter\n")
	for i, c := range m.Resources {
		fmt.Fprintf(w, "reqsched_resource_served_total{resource=\"%d\"} %d\n", i, c)
	}
	if len(m.Occupancy) > 0 {
		fmt.Fprintf(w, "# HELP reqsched_resource_occupancy Busy capacity units per resource at the current round.\n# TYPE reqsched_resource_occupancy gauge\n")
		for i, c := range m.Occupancy {
			fmt.Fprintf(w, "reqsched_resource_occupancy{resource=\"%d\"} %d\n", i, c)
		}
	}
	if m.Latency.Samples > 0 {
		fmt.Fprintf(w, "# HELP reqsched_latency_rounds Service latency in rounds.\n# TYPE reqsched_latency_rounds summary\n")
		for _, q := range []struct {
			q string
			v int
		}{{"0.5", m.Latency.P50}, {"0.9", m.Latency.P90}, {"0.99", m.Latency.P99}} {
			fmt.Fprintf(w, "reqsched_latency_rounds{quantile=%q} %d\n", q.q, q.v)
		}
		fmt.Fprintf(w, "reqsched_latency_rounds_count %d\n", m.Latency.Samples)
		g("reqsched_latency_overflow_total", m.Latency.Overflow, "Latency samples clamped into the last bucket.")
		e := 0
		if m.Latency.Exact {
			e = 1
		}
		g("reqsched_latency_exact", e, "1 while no latency sample has been clamped (quantiles are exact).")
	}
	g("reqsched_segments_closed_total", m.Rolling.Closed, "Time segments sealed at clean cuts.")
	g("reqsched_segments_solved_total", m.Rolling.Solved, "Segments whose offline optimum is folded in.")
	g("reqsched_rolling_opt_total", m.Rolling.Opt, "Offline optimum over solved segments.")
	g("reqsched_rolling_alg_total", m.Rolling.Alg, "Strategy fulfillments over solved segments.")
	g("reqsched_rolling_competitive_ratio", formatFloat(ratioOf(m.Rolling.Opt, m.Rolling.Alg)), "OPT/ALG over solved segments (+Inf when starved).")
	b := 0
	if m.Draining {
		b = 1
	}
	g("reqsched_draining", b, "1 while the server refuses new records.")
}
