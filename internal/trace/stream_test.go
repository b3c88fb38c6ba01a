package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"reqsched/internal/core"
)

// gappedStreamTrace builds a trace with quiet stretches between bursts so the
// stream has clean segment cuts.
func gappedStreamTrace(rng *rand.Rand, n, d, bursts int) *core.Trace {
	b := core.NewBuilder(n, d)
	t := 0
	for burst := 0; burst < bursts; burst++ {
		for i := 0; i < 1+rng.Intn(4); i++ {
			a := rng.Intn(n)
			c := (a + 1) % n
			id := b.AddWindow(t, 1+rng.Intn(d), a, c)
			if rng.Intn(3) == 0 {
				b.SetWeight(id, 2+rng.Intn(4))
			}
		}
		t += d + 2
	}
	return b.Build()
}

func tracesEqual(a, b *core.Trace) bool {
	if a.N != b.N || a.D != b.D || a.NumRequests() != b.NumRequests() {
		return false
	}
	ra, rb := a.Requests(), b.Requests()
	for i := range ra {
		x, y := ra[i], rb[i]
		if x.Arrive != y.Arrive || x.D != y.D || x.Weight() != y.Weight() {
			return false
		}
		if len(x.Alts) != len(y.Alts) {
			return false
		}
		for j := range x.Alts {
			if x.Alts[j] != y.Alts[j] {
				return false
			}
		}
	}
	return true
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		tr := gappedStreamTrace(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(5))
		var buf bytes.Buffer
		if err := WriteStream(&buf, tr); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ReadStream(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !tracesEqual(tr, got) {
			t.Fatalf("trial %d: roundtrip mismatch", trial)
		}
	}
}

func TestStreamMatchesDocumentFormat(t *testing.T) {
	// The two serializations describe identical traces.
	rng := rand.New(rand.NewSource(2))
	tr := gappedStreamTrace(rng, 4, 3, 4)
	var doc, stream bytes.Buffer
	if err := Write(&doc, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteStream(&stream, tr); err != nil {
		t.Fatal(err)
	}
	fromDoc, err := Read(&doc)
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := ReadStream(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(fromDoc, fromStream) {
		t.Fatal("document and stream formats decode differently")
	}
}

func TestStreamWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Add(5, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.Add(4, 0, 0, 1); err == nil {
		t.Fatal("decreasing arrival round accepted")
	}
	if sw.Count() != 1 {
		t.Fatalf("count %d after one good record", sw.Count())
	}
}

func TestStreamWriterRejectsBadRecords(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"negative round", sw.Add(-1, 0, 0, 1)},
		{"negative window", sw.Add(0, -2, 0, 1)},
		{"no alternatives", sw.Add(0, 0, 0)},
		{"resource out of range", sw.Add(0, 0, 0, 3)},
		{"duplicate alternative", sw.Add(0, 0, 0, 1, 1)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
	if _, err := NewStreamWriter(&buf, 0, 2); err == nil {
		t.Fatal("n=0 header accepted")
	}
}

func TestStreamReaderRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"garbage header", "not json\n"},
		{"bad header values", `{"n":0,"d":2}` + "\n"},
		{"header with alternatives", `{"n":2,"d":2,"alts":[0]}` + "\n"},
		{"bad header model", `{"n":2,"d":2,"hold":-1}` + "\n"},
		{"garbage record", `{"n":2,"d":2}` + "\n" + "nope\n"},
		{"record out of range", `{"n":2,"d":2}` + "\n" + `{"t":0,"alts":[5]}` + "\n"},
		{"decreasing rounds", `{"n":2,"d":2}` + "\n" + `{"t":3,"alts":[0]}` + "\n" + `{"t":1,"alts":[0]}` + "\n"},
	}
	for _, c := range cases {
		if _, err := ReadStream(strings.NewReader(c.input)); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
}

func TestStreamReaderEOF(t *testing.T) {
	sr, err := NewStreamReader(strings.NewReader(`{"n":2,"d":3}` + "\n" + `{"t":1,"alts":[0,1],"w":4}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.T != 1 || rec.D != 3 || rec.W != 4 {
		t.Fatalf("record %+v: defaults not resolved", rec)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if sr.Count() != 1 {
		t.Fatalf("count %d", sr.Count())
	}
}

func TestStreamReaderTornTail(t *testing.T) {
	// A crash mid-append leaves an unterminated final line. The reader must
	// return a *TornTail naming the byte offset where the torn line starts,
	// after having delivered every intact record, so resume can truncate the
	// tail and treat it as absent.
	header := `{"n":2,"d":3}` + "\n"
	rec := `{"t":1,"alts":[0,1]}` + "\n"
	torn := `{"t":2,"alts":[0`
	sr, err := NewStreamReader(strings.NewReader(header + rec + torn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatalf("intact record before the torn tail rejected: %v", err)
	}
	_, err = sr.Next()
	var tt *TornTail
	if !errors.As(err, &tt) {
		t.Fatalf("want *TornTail, got %v", err)
	}
	wantOff := int64(len(header) + len(rec))
	if tt.Offset != wantOff {
		t.Fatalf("torn offset %d, want %d", tt.Offset, wantOff)
	}
	if sr.Offset() != wantOff {
		t.Fatalf("reader offset %d, want %d (truncation point)", sr.Offset(), wantOff)
	}
	if sr.Count() != 1 {
		t.Fatalf("count %d, want 1", sr.Count())
	}

	// ReadStream surfaces the same error instead of silently dropping data.
	if _, err := ReadStream(strings.NewReader(header + rec + torn)); !errors.As(err, &tt) {
		t.Fatalf("ReadStream: want *TornTail, got %v", err)
	}

	// A torn header is reported too.
	if _, err := NewStreamReader(strings.NewReader(`{"n":2`)); !errors.As(err, &tt) {
		t.Fatalf("torn header: want *TornTail, got %v", err)
	}

	// Trailing whitespace after the final newline is a clean EOF, not a tear.
	sr, err = NewStreamReader(strings.NewReader(header + rec + "  \n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("whitespace tail: want io.EOF, got %v", err)
	}
}

func TestStreamReaderTornTailAtEveryByte(t *testing.T) {
	// Truncating a valid stream at any byte position must yield either the
	// full prefix of intact records plus io.EOF (cut exactly on a newline) or
	// the prefix plus a *TornTail at the last newline — never a hard failure
	// and never a phantom record.
	rng := rand.New(rand.NewSource(7))
	tr := gappedStreamTrace(rng, 3, 3, 3)
	var buf bytes.Buffer
	if err := WriteStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	firstNL := bytes.IndexByte(full, '\n') + 1
	for cut := firstNL; cut <= len(full); cut++ {
		sr, err := NewStreamReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		lastNL := bytes.LastIndexByte(full[:cut], '\n') + 1
		n := 0
		for {
			_, err := sr.Next()
			if err == io.EOF {
				if cut != lastNL {
					t.Fatalf("cut %d: clean EOF despite torn tail", cut)
				}
				break
			}
			var tt *TornTail
			if errors.As(err, &tt) {
				if cut == lastNL {
					t.Fatalf("cut %d: TornTail despite newline-terminated input", cut)
				}
				if tt.Offset != int64(lastNL) {
					t.Fatalf("cut %d: torn offset %d, want %d", cut, tt.Offset, lastNL)
				}
				break
			}
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			n++
		}
		if want := bytes.Count(full[firstNL:lastNL], []byte("\n")); n != want {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, n, want)
		}
	}
}

func TestSegmentsCutAndShift(t *testing.T) {
	// Two bursts separated by a quiet stretch: two segments, each starting at
	// round 0, weights preserved.
	b := core.NewBuilder(3, 2)
	b.Add(0, 0, 1)
	id := b.Add(1, 1, 2)
	b.SetWeight(id, 5)
	b.Add(10, 0, 2)
	tr := b.Build()
	var buf bytes.Buffer
	if err := WriteStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var segs []*core.Trace
	for seg, err := range Segments(&buf) {
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	if segs[0].NumRequests() != 2 || segs[1].NumRequests() != 1 {
		t.Fatalf("segment sizes %d, %d", segs[0].NumRequests(), segs[1].NumRequests())
	}
	if segs[1].Requests()[0].Arrive != 0 {
		t.Fatalf("second segment not shifted: arrive %d", segs[1].Requests()[0].Arrive)
	}
	if w := segs[0].Requests()[1].Weight(); w != 5 {
		t.Fatalf("weight lost across segmentation: %d", w)
	}
	for _, seg := range segs {
		if err := seg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentsRequestCountsAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tr := gappedStreamTrace(rng, 2+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(4))
		var buf bytes.Buffer
		if err := WriteStream(&buf, tr); err != nil {
			t.Fatal(err)
		}
		total := 0
		for seg, err := range Segments(&buf) {
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := seg.Validate(); err != nil {
				t.Fatalf("trial %d: segment invalid: %v", trial, err)
			}
			total += seg.NumRequests()
		}
		if total != tr.NumRequests() {
			t.Fatalf("trial %d: segments hold %d requests, trace has %d",
				trial, total, tr.NumRequests())
		}
	}
}

func TestSegmentsPropagatesErrors(t *testing.T) {
	input := `{"n":2,"d":2}` + "\n" + `{"t":0,"alts":[0]}` + "\n" + `{"t":9,"alts":[7]}` + "\n"
	var got error
	count := 0
	for seg, err := range Segments(strings.NewReader(input)) {
		if err != nil {
			got = err
			break
		}
		_ = seg
		count++
	}
	if got == nil {
		t.Fatal("bad record not reported")
	}
	// The buffered segment is only flushed by a *valid* record past its
	// deadlines; a bad record aborts the stream without yielding it.
	if count != 0 {
		t.Fatalf("yielded %d segments despite the error, want 0", count)
	}
}
