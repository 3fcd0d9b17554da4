package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoStrayPrintsInInternal keeps internal packages from writing to
// stdout: operational output belongs to the metrics registry, the trace
// ring, or an injected logger, never fmt.Print* — a daemon's stdout is
// not a log. Test files are exempt.
func TestNoStrayPrintsInInternal(t *testing.T) {
	re := regexp.MustCompile(`\bfmt\.Print(ln|f)?\(`)
	err := filepath.Walk("internal", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if re.MatchString(line) {
				t.Errorf("%s:%d: stray %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
