package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// decodeOracle is DecodeStreamRecordInto as it was before the canonical-line
// scanner: encoding/json for every line, then checkRecord and the defaults.
// The scanner must be indistinguishable from it.
func decodeOracle(out *StreamRecord, line []byte, n, d, index int) error {
	rec := fileRecord{Alts: out.Alts[:0]}
	err := json.Unmarshal(line, &rec)
	out.Alts = rec.Alts
	if err != nil {
		return fmt.Errorf("trace: stream request %d: %w", index, err)
	}
	if err := checkRecord(n, index, rec.T, rec.D, rec.Alts); err != nil {
		return err
	}
	out.T, out.D, out.W = rec.T, rec.D, rec.W
	if out.D == 0 {
		out.D = d
	}
	if out.W < 1 {
		out.W = 1
	}
	return nil
}

// warmLine primes a decode buffer with more alternatives than most inputs
// carry, so stale slots (which encoding/json leaves in place for a null
// element) are part of what the two decoders must agree on.
const warmLine = `{"t":3,"alts":[7,6,5,4,3,2,1,0]}`

func FuzzDecodeStreamRecord(f *testing.F) {
	for _, s := range []string{
		// Canonical records, with and without t/d/w.
		`{"t":0,"alts":[1]}`,
		`{"t":12,"d":3,"w":2,"alts":[0,7,3]}`,
		`{"alts":[2,5]}`,
		`{"w":4,"alts":[1],"d":9,"t":1}`,
		`{"t":1,"alts":[1,1]}`,
		`{"t":-1,"alts":[1]}`,
		`{"t":1,"d":-2,"alts":[1]}`,
		`{"t":1,"w":-3,"alts":[1]}`,
		`{"t":1,"alts":[8]}`,
		`{"t":1}`,
		// Whitespace and CRLF.
		" { \"t\" : 5 ,\t\"alts\" : [ 1 , 2 ] } ",
		"{\"t\":5,\"alts\":[1]}\r",
		"{\r\n\"t\":5,\n\"alts\":[\r1]\r\n}\r\n",
		// Key spellings encoding/json matches, and keys it ignores.
		`{"T":5,"ALTS":[1]}`,
		`{"t":5,"Alts":[1],"alts":[2]}`,
		`{"t":5,"alts":[1],"x":7}`,
		`{"t":5,"t":6,"alts":[1]}`,
		`{"t":5,"alts":[1],"alts":[2,3]}`,
		`{"t":5,"alts":[1,2,3],"alts":[null,4]}`,
		`{"t":5,"alts":[1],"alts":[2,null]}`,
		`{"\u0074":5,"alts":[1]}`,
		`{"t":5,"al\u0074s":[1]}`,
		// Values the scanner leaves to encoding/json.
		`{"t":null,"alts":[1]}`,
		`{"t":5,"alts":null}`,
		`{"t":5,"alts":[null,1]}`,
		`{"t":5,"alts":[1,null]}`,
		`{"t":1.0,"alts":[1]}`,
		`{"t":1e2,"alts":[1]}`,
		`{"t":-0,"alts":[1]}`,
		`{"t":01,"alts":[1]}`,
		`{"t":123456789012345678,"alts":[1]}`,
		`{"t":1234567890123456789,"alts":[1]}`,
		`{"t":12345678901234567890,"alts":[1]}`,
		`{"t":"5","alts":[1]}`,
		`{"t":5,"alts":[1.5]}`,
		`{"t":5,"alts":["1"]}`,
		// Shapes that are not one record.
		`[]`,
		`{}`,
		``,
		`{"t":5,"alts":[1]}x`,
		`{"t":5,"alts":[1]} {}`,
		`{"t":5,"alts":[1],}`,
		`{"t":5,"alts":[1,]}`,
		`{,"t":5,"alts":[1]}`,
		`{"t":5 "alts":[1]}`,
		`{"t":5,"alts":[1]`,
		`{"t":5,"alts":[]}`,
		`{"t"5,"alts":[1]}`,
		`{"t":-,"alts":[1]}`,
		"{\"t\":5,\"alts\":[1]}\x00",
	} {
		f.Add([]byte(s))
	}
	const n, d, index = 8, 3, 5
	f.Fuzz(func(t *testing.T, line []byte) {
		for _, warm := range []bool{false, true} {
			var got, want StreamRecord
			if warm {
				if err := DecodeStreamRecordInto(&got, []byte(warmLine), n, d, 0); err != nil {
					t.Fatal(err)
				}
				if err := decodeOracle(&want, []byte(warmLine), n, d, 0); err != nil {
					t.Fatal(err)
				}
			}
			gotErr := DecodeStreamRecordInto(&got, line, n, d, index)
			wantErr := decodeOracle(&want, line, n, d, index)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("warm=%v %q: error %v, oracle %v", warm, line, gotErr, wantErr)
			}
			if got.T != want.T || got.D != want.D || got.W != want.W || !slices.Equal(got.Alts, want.Alts) {
				t.Fatalf("warm=%v %q: decoded %+v, oracle %+v", warm, line, got, want)
			}
		}
	})
}

// scanLineReference is ScanJSONLine as it was before ReadSlice: one
// ReadBytes copy per line.
func scanLineReference(r *bufio.Reader, off int64) (line []byte, next int64, err error) {
	for {
		line, err = r.ReadBytes('\n')
		next = off + int64(len(line))
		blank := len(bytes.TrimSpace(line)) == 0
		if err == nil {
			if blank {
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

// scanAll runs scan over body to the end, rendering each step (line, next
// offset, error) as one string.
func scanAll(body []byte, size int, scan func(*bufio.Reader, int64) ([]byte, int64, error)) []string {
	br := bufio.NewReaderSize(bytes.NewReader(body), size)
	var steps []string
	var off int64
	for {
		line, next, err := scan(br, off)
		if err != nil {
			var torn *TornTail
			if errors.As(err, &torn) {
				return append(steps, fmt.Sprintf("torn@%d next=%d", torn.Offset, next))
			}
			return append(steps, fmt.Sprintf("%v next=%d", err, next))
		}
		steps = append(steps, fmt.Sprintf("%q next=%d", line, next))
		off = next
	}
}

func TestScanJSONLineSmallBuffer(t *testing.T) {
	// A 16-byte reader (bufio's minimum) sends most lines through the
	// ErrBufferFull gather path; lines, offsets, blank-line skips and torn
	// tails must match the ReadBytes reference at every buffer size.
	rng := rand.New(rand.NewSource(11))
	const alphabet = "  \t\r\r\n\n{}x1"
	for trial := 0; trial < 2000; trial++ {
		var b strings.Builder
		for range rng.Intn(6) {
			for range rng.Intn(40) {
				b.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			b.WriteByte('\n')
		}
		for range rng.Intn(3) * rng.Intn(30) {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		body := []byte(b.String())
		want := scanAll(body, 4096, scanLineReference)
		for _, size := range []int{16, 4096} {
			if got := scanAll(body, size, ScanJSONLine); !slices.Equal(got, want) {
				t.Fatalf("body %q, buffer %d:\n got %q\nwant %q", body, size, got, want)
			}
		}
	}
}

func TestDecodeCanonicalLinesAllocFree(t *testing.T) {
	// Warm canonical lines — with and without d and w, LF and CRLF, blank
	// lines between — scan and decode without a single heap allocation.
	const lines = 512
	rng := rand.New(rand.NewSource(3))
	var body []byte
	for i := 0; i < lines; i++ {
		body = fmt.Appendf(body, `{"t":%d,`, i/8)
		if i%5 == 0 {
			body = fmt.Appendf(body, `"d":%d,"w":%d,`, 1+rng.Intn(6), 1+rng.Intn(3))
		}
		body = append(body, `"alts":[`...)
		for j, a := range rng.Perm(16)[:1+rng.Intn(4)] {
			if j > 0 {
				body = append(body, ',')
			}
			body = fmt.Appendf(body, "%d", a)
		}
		if i%3 == 0 {
			body = append(body, "]}\r\n"...)
		} else {
			body = append(body, "]}\n"...)
		}
		if i%7 == 0 {
			body = append(body, " \r\n"...)
		}
	}
	src := bytes.NewReader(body)
	br := bufio.NewReader(src)
	var rec StreamRecord
	decodeAll := func() {
		src.Reset(body)
		br.Reset(src)
		var off int64
		for idx := 0; ; idx++ {
			line, next, err := ScanJSONLine(br, off)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			off = next
			if err := DecodeStreamRecordInto(&rec, line, 16, 4, idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	if allocs := testing.AllocsPerRun(20, decodeAll); allocs != 0 {
		t.Fatalf("%v allocations per pass over %d canonical lines, want 0", allocs, lines)
	}
}
