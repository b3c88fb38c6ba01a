package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunDeterministic runs the example twice and compares both outputs with
// each other and with the checked-in golden.
func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	run(&a)
	run(&b)
	if a.String() != b.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", a.String(), b.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "output.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != string(want) {
		t.Fatalf("output differs from testdata/output.golden:\n%s", a.String())
	}
}
