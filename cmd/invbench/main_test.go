package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFigureIsUsageError: -fig takes 3..6. Any other number used
// to run the whole three-configuration reproduction, print no figure and
// exit 0; it must be refused before any benchmark work.
func TestUnknownFigureIsUsageError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "invbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// -size 2 (the smallest the workloads accept) keeps the run short
	// where the bug is present.
	cmd := exec.Command(bin, "-fig", "7", "-size", "2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("invbench -fig 7: err = %v, want a non-zero exit", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("invbench -fig 7 did benchmark work:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "-fig 7") || !strings.Contains(msg, "Usage") {
		t.Errorf("invbench -fig 7 stderr = %q, want a usage error naming the flag", msg)
	}
}
