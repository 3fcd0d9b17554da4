package inversion_test

import (
	"bufio"
	"flag"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/inversion"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from this run")

// TestMetricNamesGolden pins the name and kind of every metric a served
// database publishes after a short workload, on both surfaces: the
// `# TYPE` lines of /metrics and the three sections of the statsv2
// snapshot. Every golden line must still be served; a metric may be
// added (it is logged), but none may disappear or change kind. Run with
// -update to rewrite the file after an intended addition.
func TestMetricNamesGolden(t *testing.T) {
	db, err := inversion.OpenMemory(inversion.Options{Buffers: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := inversion.NewServer(db)
	srv.SetLogf(func(string, ...any) {})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := inversion.Dial(addr, "golden")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The workload: namespace, data path, transactions, a query, vacuum.
	if err := c.Mkdir("/g"); err != nil {
		t.Fatal(err)
	}
	fd, err := c.PCreat("/g/a", inversion.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte(strings.Repeat("golden ", 3000))); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/g/a", "/g/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/g/b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadDir("/g", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`retrieve (filename) where size(file) > 0`); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := c.Vacuum(); err != nil {
		t.Fatal(err)
	}

	var got []string
	snap, err := c.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range snap.Counters {
		got = append(got, "statsv2 counter "+v.Name)
	}
	for _, v := range snap.Gauges {
		got = append(got, "statsv2 gauge "+v.Name)
	}
	for _, h := range snap.Hists {
		got = append(got, "statsv2 histogram "+h.Name)
	}
	rec := httptest.NewRecorder()
	inversion.NewMetricsHandler(db, srv).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			got = append(got, "metrics "+rest)
		}
	}
	sort.Strings(got)

	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[string]bool, len(got))
	for _, g := range got {
		served[g] = true
	}
	want := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[line] = true
		if !served[line] {
			t.Errorf("no longer served: %s", line)
		}
	}
	for _, g := range got {
		if !want[g] {
			t.Logf("added: %s", g)
		}
	}
}
