package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func newBufReader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

// crlf converts a LF-terminated stream to CRLF line endings — the shape curl
// uploads from Windows clients, or any text-mode file transfer, produce.
func crlf(b []byte) []byte {
	return bytes.ReplaceAll(b, []byte("\n"), []byte("\r\n"))
}

// TestStreamCRLFEquivalent pins the CRLF-tolerance fix: a stream with \r\n
// line endings must decode to exactly the same trace as its \n twin.
func TestStreamCRLFEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := gappedStreamTrace(rng, 4, 3, 3)
	var buf bytes.Buffer
	if err := WriteStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadStream(bytes.NewReader(crlf(buf.Bytes())))
	if err != nil {
		t.Fatalf("CRLF stream rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("CRLF stream decodes to a different trace than the LF original")
	}
}

// TestStreamReaderTornTailAtEveryByteCRLF extends the truncate-at-every-byte
// property to CRLF streams: any cut yields the intact-record prefix plus a
// clean EOF or a *TornTail whose offset counts the raw bytes (including the
// \r), never a hard failure or a phantom record. In particular a line cut
// between its \r and \n is torn, not parsed.
func TestStreamReaderTornTailAtEveryByteCRLF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := gappedStreamTrace(rng, 3, 3, 3)
	var buf bytes.Buffer
	if err := WriteStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := crlf(buf.Bytes())
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

// TestScanJSONLineStripsTerminator pins the scanner contract directly: the
// returned line carries no \n or \r terminator, while offsets still count
// every raw byte so journal truncation points stay exact.
func TestScanJSONLineStripsTerminator(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		next int64
	}{
		{"{\"a\":1}\n", `{"a":1}`, 8},
		{"{\"a\":1}\r\n", `{"a":1}`, 9},
		{"{\"a\":1}\r\nmore", `{"a":1}`, 9},
	} {
		line, next, err := ScanJSONLine(newBufReader(tc.in), 0)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if string(line) != tc.want {
			t.Errorf("%q: line %q, want %q", tc.in, line, tc.want)
		}
		if next != tc.next {
			t.Errorf("%q: next offset %d, want %d", tc.in, next, tc.next)
		}
	}
	// A lone "\r" with no newline is a torn line, not a blank one.
	_, _, err := ScanJSONLine(newBufReader("{\"a\":1}\r"), 0)
	var tt *TornTail
	if !errors.As(err, &tt) || tt.Offset != 0 {
		t.Fatalf("unterminated CR line: want TornTail at 0, got %v", err)
	}
	// "\r\n" alone is whitespace: clean EOF.
	if _, _, err := ScanJSONLine(newBufReader("\r\n"), 0); err != io.EOF {
		t.Fatalf("CRLF-only input: want io.EOF, got %v", err)
	}
}

// TestScanJSONLineMaxCap pins the capped scanner at the cap's edge, for lines
// inside one reader buffer and lines gathered across several: a line of
// exactly max bytes (terminator included) scans, one byte more is a
// *LineTooLong naming the line's start, past any blank lines before it.
func TestScanJSONLineMaxCap(t *testing.T) {
	for _, max := range []int{8, 10000} {
		fits := strings.Repeat("x", max-1) + "\n"
		line, next, err := ScanJSONLineMax(newBufReader(fits), 0, max)
		if err != nil || len(line) != max-1 || next != int64(max) {
			t.Fatalf("max %d: line of max bytes: len %d next %d err %v", max, len(line), next, err)
		}
		long := "\n \n" + strings.Repeat("x", max) + "\n"
		_, _, err = ScanJSONLineMax(newBufReader(long), 0, max)
		var tl *LineTooLong
		if !errors.As(err, &tl) || tl.Offset != 3 || tl.Max != max {
			t.Fatalf("max %d: line of max+1 bytes: want LineTooLong at 3, got %v", max, err)
		}
	}
}
