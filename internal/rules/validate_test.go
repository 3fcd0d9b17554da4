package rules

import "testing"

// TestAddRejectsNamesNoRowReaches: a predicate's names are resolved
// before any file is read, so a misspelt attribute or a bad call is
// refused even where short-circuit evaluation would never reach it on
// the files that happen to exist.
func TestAddRejectsNamesNoRowReaches(t *testing.T) {
	_, s, e := newEnv(t)
	for _, where := range []string{
		`1 = 2 and nosuch = 1`,
		`1 = 1 or f.filename = "x"`,
		`1 = 2 and size(file, file) > 0`,
	} {
		if err := e.Add(s, Rule{Name: where, Where: where, TargetClass: "jukebox"}); err == nil {
			t.Errorf("predicate %q accepted", where)
		}
	}
}
