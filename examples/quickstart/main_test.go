package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.txt")

// TestGoldenOutput byte-compares the example's output with
// testdata/output.txt. Regenerate with
//
//	go test ./examples/quickstart -run GoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "output.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("%s: output differs from the golden\n--- golden\n%s\n--- got\n%s", path, want, buf.Bytes())
	}
}
