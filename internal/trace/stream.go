// Streaming JSONL trace format. The one-document JSON format (Write/Read)
// materializes the whole trace on both ends; million-request traces need a
// representation that can be produced and consumed request by request. The
// stream format is JSON Lines: a header object {"n":..,"d":..} followed by
// one request record per line, in nondecreasing arrival-round order — the
// same records as the document format, so both describe identical traces.
// The arrival-order requirement is what makes single-pass segmentation
// possible: a reader can cut the stream wherever an arrival round lies past
// every earlier request's deadline and seal each independent time segment's
// offline optimum without ever holding more than one segment.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"reqsched/internal/core"
)

// streamHeader is the first line of a JSONL trace stream. Hold and Cap carry
// the service model and are omitted for the unit model, keeping unit streams
// byte-identical to the historical format.
type streamHeader struct {
	N    int `json:"n"`
	D    int `json:"d"`
	Hold int `json:"hold,omitempty"`
	Cap  int `json:"cap,omitempty"`
}

// StreamWriter emits a trace as JSONL without materializing it: the caller
// adds requests one by one in nondecreasing arrival-round order.
type StreamWriter struct {
	enc   *json.Encoder
	n, d  int
	lastT int
	count int
}

// NewStreamWriter writes the stream header for a trace over n resources with
// default deadline window d and returns the writer.
func NewStreamWriter(w io.Writer, n, d int) (*StreamWriter, error) {
	return NewStreamWriterModel(w, n, d, core.UnitModel())
}

// NewStreamWriterModel is NewStreamWriter for a trace under service model m;
// a non-unit model is recorded in the stream header.
func NewStreamWriterModel(w io.Writer, n, d int, m core.ServiceModel) (*StreamWriter, error) {
	if n < 1 || d < 1 {
		return nil, fmt.Errorf("trace: invalid stream header n=%d d=%d", n, d)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	h := streamHeader{N: n, D: d}
	if m = m.Norm(); !m.IsUnit() {
		h.Hold, h.Cap = m.Hold, m.Cap
	}
	sw := &StreamWriter{enc: json.NewEncoder(w), n: n, d: d}
	if err := sw.enc.Encode(h); err != nil {
		return nil, fmt.Errorf("trace: stream header: %w", err)
	}
	return sw, nil
}

// Add appends one request arriving at round t with deadline window d (<= 0:
// the stream default), weight w (<= 1: the default 1) and the given
// alternatives. Arrival rounds must be nondecreasing — the property
// single-pass readers and the clean-cut segmentation of the offline optimum
// rely on.
func (sw *StreamWriter) Add(t, d, w int, alts ...int) error {
	if t < sw.lastT {
		return fmt.Errorf("trace: stream arrival at round %d after round %d", t, sw.lastT)
	}
	if err := checkRecord(sw.n, sw.count, t, d, alts); err != nil {
		return err
	}
	sw.lastT = t
	sw.count++
	rec := fileRecord{T: t, Alts: alts}
	if d > 0 && d != sw.d {
		rec.D = d
	}
	if w > 1 {
		rec.W = w
	}
	return sw.enc.Encode(rec)
}

// Count returns the number of requests written so far.
func (sw *StreamWriter) Count() int { return sw.count }

// WriteStream serializes an already materialized trace as JSONL — the
// convenience path; generators that never build a Trace use StreamWriter
// directly.
func WriteStream(w io.Writer, tr *core.Trace) error {
	sw, err := NewStreamWriterModel(w, tr.N, tr.D, tr.Model)
	if err != nil {
		return err
	}
	for _, r := range tr.Requests() {
		if err := sw.Add(r.Arrive, r.D, r.Weight(), r.Alts...); err != nil {
			return err
		}
	}
	return nil
}

// checkRecord validates one stream record against the header; index names the
// record in errors.
func checkRecord(n, index, t, d int, alts []int) error {
	if t < 0 {
		return fmt.Errorf("trace: stream request %d has negative arrival round %d", index, t)
	}
	if d < 0 {
		return fmt.Errorf("trace: stream request %d has negative window %d", index, d)
	}
	if len(alts) < 1 {
		return fmt.Errorf("trace: stream request %d has no alternatives", index)
	}
	for i, a := range alts {
		if a < 0 || a >= n {
			return fmt.Errorf("trace: stream request %d names resource %d outside [0,%d)", index, a, n)
		}
		for _, b := range alts[:i] {
			if a == b {
				return fmt.Errorf("trace: stream request %d repeats alternative %d", index, a)
			}
		}
	}
	return nil
}

// StreamRecord is one decoded request of a JSONL trace stream, rounds still
// absolute. D and W are already resolved against the stream defaults.
type StreamRecord struct {
	// T is the arrival round; D the deadline window; W the weight.
	T, D, W int
	// Alts lists the alternative resources in preference order. The slice is
	// owned by the caller; DecodeStreamRecordInto overwrites it in place, so
	// a caller that keeps alternatives past the next decode copies them.
	Alts []int
}

// Deadline returns the last round the request may be served in.
func (r StreamRecord) Deadline() int { return r.T + r.D - 1 }

// TornTail reports a truncated final JSONL line — the signature of a crash
// (or power loss) mid-append: every intact record ends with a newline, so an
// unterminated last line can only be a partial write. Offset is the byte
// offset at which the torn line starts; resume logic can truncate the file
// there and treat the tail as absent instead of failing the whole file.
type TornTail struct {
	Offset int64
}

func (e *TornTail) Error() string {
	return fmt.Sprintf("trace: torn final JSONL line at byte offset %d (truncated write)", e.Offset)
}

// LineTooLong reports a line that ran past a scanner's length cap before its
// newline. Offset is the byte offset at which the line starts.
type LineTooLong struct {
	Offset int64
	Max    int
}

func (e *LineTooLong) Error() string {
	return fmt.Sprintf("trace: line at byte offset %d exceeds %d bytes", e.Offset, e.Max)
}

// ScanJSONLine reads one newline-terminated line from r, where off is the
// byte offset of the line's start. It returns the line with its terminator
// stripped (without diagnosing its JSON), the offset just past its newline,
// io.EOF on a clean end of input (only whitespace remained), or a *TornTail
// when the input ends in an unterminated line. A trailing "\r" before the
// newline is stripped too, so CRLF streams (curl from Windows, text-mode
// file transfers) parse identically to LF ones; offsets always count the
// raw bytes consumed, so torn-tail truncation points stay exact. It is the
// shared low-level scanner of the trace stream reader and the grid
// checkpoint journal.
//
// The line usually aliases r's internal buffer: it stays valid only until
// the next read from r, so callers decode (or copy) it first. Only a line
// longer than r's buffer is gathered into a fresh slice.
func ScanJSONLine(r *bufio.Reader, off int64) (line []byte, next int64, err error) {
	return ScanJSONLineMax(r, off, math.MaxInt)
}

// ScanJSONLineMax is ScanJSONLine for untrusted input: a line longer than max
// bytes, terminator included, yields a *LineTooLong after at most max bytes
// plus r's buffer size have been consumed, instead of being gathered whole.
func ScanJSONLineMax(r *bufio.Reader, off int64, max int) (line []byte, next int64, err error) {
	for {
		line, err = readLine(r, max)
		if err == errLineTooLong {
			return nil, off, &LineTooLong{Offset: off, Max: max}
		}
		next = off + int64(len(line))
		blank := len(bytes.TrimSpace(line)) == 0
		if err == nil {
			if blank { // skip whitespace-only lines between records
				off = next
				continue
			}
			line = bytes.TrimSuffix(line, []byte("\n"))
			line = bytes.TrimSuffix(line, []byte("\r"))
			return line, next, nil
		}
		if err == io.EOF {
			if blank {
				return nil, next, io.EOF
			}
			return nil, next, &TornTail{Offset: off}
		}
		return nil, next, err
	}
}

// errLineTooLong is readLine's internal signal that a line passed its cap.
var errLineTooLong = errors.New("trace: line too long")

// readLine is bufio.Reader.ReadBytes('\n') without the per-line copy: it
// returns ReadSlice's view of the buffer, and gathers into a fresh slice only
// when the line overflows the buffer. Gathering stops, with errLineTooLong,
// as soon as the line passes max bytes.
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= max {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if len(line) > max {
		return nil, errLineTooLong
	}
	return line, err
}

// StreamReader decodes a JSONL trace stream record by record, validating each
// against the header and the nondecreasing-arrival-order invariant. Records
// are newline-terminated; an unterminated final line is reported as a
// *TornTail naming its byte offset, so crash-resume callers can distinguish
// a torn append from real corruption.
type StreamReader struct {
	r      *bufio.Reader
	n, d   int
	model  core.ServiceModel
	index  int
	lastT  int
	offset int64
}

// NewStreamReader reads and validates the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{r: bufio.NewReader(r)}
	line, next, err := ScanJSONLine(sr.r, 0)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: stream header: %w", io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("trace: stream header: %w", err)
	}
	sr.offset = next
	if sr.n, sr.d, sr.model, err = DecodeStreamHeader(line); err != nil {
		return nil, err
	}
	return sr, nil
}

// DecodeStreamHeader decodes and validates one stream header line: n and d
// at least 1 and a valid service model, returned normalized (unit when the
// line names none). A line that carries "alts" is a record, never a header.
func DecodeStreamHeader(line []byte) (n, d int, m core.ServiceModel, err error) {
	var h struct {
		streamHeader
		Alts json.RawMessage `json:"alts"`
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return 0, 0, m, fmt.Errorf("trace: stream header: %w", err)
	}
	if h.N < 1 || h.D < 1 {
		return 0, 0, m, fmt.Errorf("trace: invalid stream header n=%d d=%d", h.N, h.D)
	}
	if h.Alts != nil {
		return 0, 0, m, errors.New("trace: stream header carries alts")
	}
	model := core.ServiceModel{Hold: h.Hold, Cap: h.Cap}
	if err := model.Validate(); err != nil {
		return 0, 0, m, fmt.Errorf("trace: stream header: %w", err)
	}
	return h.N, h.D, model.Norm(), nil
}

// N returns the number of resources; D the default deadline window.
func (sr *StreamReader) N() int { return sr.n }
func (sr *StreamReader) D() int { return sr.d }

// Model returns the stream's service model (normalized; unit when the header
// carries none).
func (sr *StreamReader) Model() core.ServiceModel { return sr.model }

// Count returns the number of records decoded so far.
func (sr *StreamReader) Count() int { return sr.index }

// Offset returns the byte offset just past the last fully consumed line —
// the truncation point a resume should use when Next reports a *TornTail.
func (sr *StreamReader) Offset() int64 { return sr.offset }

// Next decodes and validates the next record. It returns io.EOF after the
// last record, or a *TornTail if the stream ends in a truncated line.
func (sr *StreamReader) Next() (StreamRecord, error) {
	line, next, err := ScanJSONLine(sr.r, sr.offset)
	if err != nil {
		if err == io.EOF {
			return StreamRecord{}, io.EOF
		}
		var torn *TornTail
		if errors.As(err, &torn) {
			return StreamRecord{}, err
		}
		return StreamRecord{}, fmt.Errorf("trace: stream request %d: %w", sr.index, err)
	}
	sr.offset = next
	out, err := DecodeStreamRecord(line, sr.n, sr.d, sr.index)
	if err != nil {
		return StreamRecord{}, err
	}
	if out.T < sr.lastT {
		return StreamRecord{}, fmt.Errorf("trace: stream request %d at round %d after round %d", sr.index, out.T, sr.lastT)
	}
	sr.lastT = out.T
	sr.index++
	return out, nil
}

// DecodeStreamRecord decodes and validates one JSONL request line against a
// stream contract (n resources, default deadline window d), resolving the D
// and W defaults; index names the record in errors. It is the line-level core
// of StreamReader.Next, exported for ingest paths — like the serve daemon —
// that receive records outside a file stream and enforce ordering themselves.
func DecodeStreamRecord(line []byte, n, d, index int) (StreamRecord, error) {
	var out StreamRecord
	if err := DecodeStreamRecordInto(&out, line, n, d, index); err != nil {
		return StreamRecord{}, err
	}
	return out, nil
}

// DecodeStreamRecordInto is DecodeStreamRecord reusing out's Alts capacity:
// the decoder appends into out.Alts[:0], so a hot ingest loop that copies
// alternatives out of the record decodes canonical lines (see scanRecord)
// without allocating once the buffer has grown to the widest record. Any
// other line goes through encoding/json, so acceptance, values and error
// text are those of json.Unmarshal for every input. On error the record
// fields are unspecified, but the Alts buffer is retained for the next call.
func DecodeStreamRecordInto(out *StreamRecord, line []byte, n, d, index int) error {
	t, rd, w, ok := scanRecord(line, &out.Alts)
	if !ok {
		var err error
		if t, rd, w, err = unmarshalRecord(out, line); err != nil {
			return fmt.Errorf("trace: stream request %d: %w", index, err)
		}
	}
	if err := checkRecord(n, index, t, rd, out.Alts); err != nil {
		return err
	}
	if rd == 0 {
		rd = d
	}
	if w < 1 {
		w = 1
	}
	out.T, out.D, out.W = t, rd, w
	return nil
}

// unmarshalRecord decodes line with encoding/json into out.Alts[:0]. It is a
// function of its own so the fileRecord, whose address escapes into
// json.Unmarshal, is allocated only on this path.
func unmarshalRecord(out *StreamRecord, line []byte) (t, d, w int, err error) {
	rec := fileRecord{Alts: out.Alts[:0]}
	err = json.Unmarshal(line, &rec)
	out.Alts = rec.Alts // keep the (possibly regrown) buffer either way
	return rec.T, rec.D, rec.W, err
}

// scanRecord decodes line if it is a canonical stream record: one object
// whose keys are drawn from "t", "d", "w" and "alts", each at most once,
// spelled exactly so and without escapes, whose values are JSON integer
// literals of at most 18 digits (an array of them for "alts"), with JSON
// whitespace allowed between tokens. The alternatives are appended to
// (*alts)[:0]. Any other line reports ok = false and is left to
// encoding/json, which matches keys case-insensitively, ignores unknown
// fields, lets a repeated key win and rejects what the scanner cannot
// classify — rules the scanner never has to reproduce. Every accepted line is
// valid JSON that json.Unmarshal decodes to the same values.
func scanRecord(line []byte, alts *[]int) (t, d, w int, ok bool) {
	*alts = (*alts)[:0]
	s := recScanner{b: line}
	if s.next() != '{' {
		return 0, 0, 0, false
	}
	c := s.next()
	var seen uint8
	for c != '}' {
		if c != '"' {
			return 0, 0, 0, false
		}
		end := bytes.IndexByte(s.b[s.i:], '"')
		if end < 0 {
			return 0, 0, 0, false
		}
		key := s.b[s.i : s.i+end]
		s.i += end + 1
		if s.next() != ':' {
			return 0, 0, 0, false
		}
		var field *int // nil for "alts"
		var bit uint8
		switch string(key) {
		case "t":
			field, bit = &t, 1
		case "d":
			field, bit = &d, 2
		case "w":
			field, bit = &w, 4
		case "alts":
			bit = 8
		}
		// An unknown or repeated key is left to encoding/json before its
		// value is scanned: a second "alts" would otherwise write buffer
		// slots that encoding/json leaves stale.
		if bit == 0 || seen&bit != 0 {
			return 0, 0, 0, false
		}
		seen |= bit
		var valid bool
		if field != nil {
			*field, valid = s.int()
		} else {
			*alts, valid = s.ints(*alts)
		}
		if !valid {
			return 0, 0, 0, false
		}
		if c = s.next(); c == ',' {
			c = s.next()
			if c == '}' { // trailing comma
				return 0, 0, 0, false
			}
		} else if c != '}' {
			return 0, 0, 0, false
		}
	}
	s.skipSpace()
	return t, d, w, s.i == len(s.b)
}

// recScanner is scanRecord's cursor over one line.
type recScanner struct {
	b []byte
	i int
}

func (s *recScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes the following byte; 0 at the end of the
// line (a NUL byte in the line is rejected by every caller as well).
func (s *recScanner) next() byte {
	s.skipSpace()
	if s.i == len(s.b) {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return c
}

// int consumes a JSON integer literal that fits an int: an optional minus,
// then "0" or up to 18 digits without a leading zero. A fraction or exponent
// is left unconsumed, so the caller's delimiter check rejects it.
func (s *recScanner) int() (int, bool) {
	s.skipSpace()
	i := s.i
	neg := i < len(s.b) && s.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(s.b) && i-start < 19 && '0' <= s.b[i] && s.b[i] <= '9' {
		v = v*10 + int64(s.b[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > 18 || digits > 1 && s.b[start] == '0' {
		return 0, false
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v { // 32-bit int
		return 0, false
	}
	s.i = i
	return int(v), true
}

// ints consumes a JSON array of integer literals, appending them to a. It
// returns the grown slice even on failure, so the caller keeps the buffer.
func (s *recScanner) ints(a []int) ([]int, bool) {
	if s.next() != '[' {
		return a, false
	}
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == ']' {
		s.i++
		return a, true
	}
	for {
		v, ok := s.int()
		if !ok {
			return a, false
		}
		// Append only once the delimiter proves v a whole literal: a slot
		// written for "1" of "1.5" would differ from the stale slot
		// encoding/json leaves behind when it rejects the element.
		switch s.next() {
		case ',':
			a = append(a, v)
		case ']':
			return append(a, v), true
		default:
			return a, false
		}
	}
}

// ReadStream materializes a whole JSONL stream as a validated trace — the
// convenience inverse of WriteStream, for streams known to fit in memory.
func ReadStream(r io.Reader) (*core.Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	b := core.NewBuilder(sr.N(), sr.D())
	if m := sr.Model(); !m.IsUnit() {
		b.SetModel(m)
	}
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		id := b.AddWindow(rec.T, rec.D, rec.Alts...)
		if rec.W > 1 {
			b.SetWeight(id, rec.W)
		}
	}
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
