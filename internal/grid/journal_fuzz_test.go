package grid

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes to the journal reader resume runs on.
// Whatever the input, it must not panic, every examined line must be either
// a returned record or a skipped one, every returned record must verify, and
// a reported torn tail must lie inside the input with the prefix before it
// reading back as the same records and no torn tail — the file resume
// truncates to.
func FuzzReadJournal(f *testing.F) {
	var valid []byte
	for i, id := range []string{"a", "b", "c"} {
		line, err := json.Marshal(sampleRecord(id, 8+i, 5+i))
		if err != nil {
			f.Fatal(err)
		}
		valid = append(append(valid, line...), '\n')
	}
	bad := sampleRecord("d", 9, 6)
	bad.Digest = strings.Repeat("0", len(bad.Digest))
	badLine, err := json.Marshal(bad)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                                            // torn tail
	f.Add(append(append([]byte(nil), valid...), append(badLine, '\n')...)) // bad digest
	f.Add(bytes.ReplaceAll(valid, []byte("\n"), []byte("\r\n")))           // CRLF
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, scan, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadJournal over an in-memory input: %v", err)
		}
		if scan.Lines != scan.Skipped+len(recs) {
			t.Fatalf("%d lines examined, %d skipped, %d records", scan.Lines, scan.Skipped, len(recs))
		}
		for _, r := range recs {
			if err := r.Verify(); err != nil {
				t.Fatalf("returned record does not verify: %v", err)
			}
		}
		if scan.TornOffset == -1 {
			return
		}
		if scan.TornOffset < 0 || scan.TornOffset >= int64(len(data)) {
			t.Fatalf("torn offset %d outside the %d-byte input", scan.TornOffset, len(data))
		}
		again, rescan, err := ReadJournal(bytes.NewReader(data[:scan.TornOffset]))
		if err != nil {
			t.Fatal(err)
		}
		if rescan.TornOffset != -1 || !reflect.DeepEqual(again, recs) {
			t.Fatalf("prefix before torn offset %d reads %d records (torn %d), want %d (torn -1)",
				scan.TornOffset, len(again), rescan.TornOffset, len(recs))
		}
	})
}
