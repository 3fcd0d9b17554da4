package core

import (
	"testing"

	"repro/internal/value"
)

// scanCatalog returns a copy of every row a registered catalog emits,
// after checking each row's width and kinds against its columns.
func scanCatalog(t *testing.T, db *DB, name string) [][]value.V {
	t.Helper()
	rel, ok := db.SysViews().Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	var rows [][]value.V
	err := rel.Scan(nil, func(row []value.V) error {
		if len(row) != len(rel.Columns) {
			t.Fatalf("%s row has %d values for %d columns", name, len(row), len(rel.Columns))
		}
		for i, v := range row {
			if v.Kind != rel.Columns[i].Kind {
				t.Fatalf("%s column %s has kind %v, want %v", name, rel.Columns[i].Name, v.Kind, rel.Columns[i].Kind)
			}
		}
		rows = append(rows, append([]value.V(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRelationsAndVacuum: inv_relations lists every relation in OID
// order, and inv_vacuum lists runs newest first, bounded, in column
// order.
func TestRelationsAndVacuum(t *testing.T) {
	db, s := newDB(t)
	if err := s.WriteFile("/f", []byte("hello"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	rels := scanCatalog(t, db, "inv_relations")
	byName := map[string][]value.V{}
	for i, r := range rels {
		if i > 0 && rels[i-1][0].I >= r[0].I {
			t.Fatalf("relations not in OID order: %v then %v", rels[i-1], r)
		}
		byName[r[1].S] = r
	}
	if r := byName["naming"]; r == nil || r[2].S != "heap" || r[4].I < 2 {
		t.Fatalf("naming row = %v, want a heap with / and /f live", r)
	}
	if r := byName["fileatt_idx"]; r == nil || r[2].S != "index" || r[3].I < 1 {
		t.Fatalf("fileatt_idx row = %v", r)
	}

	if rows := scanCatalog(t, db, "inv_vacuum"); len(rows) != 0 {
		t.Fatalf("vacuum rows before any run = %v", rows)
	}
	for i := 0; i < maxVacuumRuns+2; i++ {
		if _, err := db.Vacuum(); err != nil {
			t.Fatal(err)
		}
	}
	vac := scanCatalog(t, db, "inv_vacuum")
	if len(vac) != maxVacuumRuns {
		t.Fatalf("vacuum rows = %d, want the newest %d", len(vac), maxVacuumRuns)
	}
	if vac[0][0].I < vac[len(vac)-1][0].I || vac[0][2].I < 1 || vac[0][3].I < 1 {
		t.Fatalf("vacuum rows not newest first or empty: first %v last %v", vac[0], vac[len(vac)-1])
	}
}
