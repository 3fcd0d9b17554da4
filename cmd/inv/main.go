// Command inv is the client for a running invd server. Every operation
// the paper describes is reachable: ordinary file I/O, directory
// listing, time-travel reads via -asof, typed files, function
// invocation, migration, vacuuming, ad hoc POSTQUEL queries, and a
// live or replayed view of the server's metrics.
//
//	inv [-addr host:port] [-owner name] <command> [args]
//
//	  ls [-asof T] [PATH]        list a directory (optionally as of time T)
//	  cat [-asof T] PATH         print a file (optionally a past version)
//	  put PATH [TEXT...]         store TEXT, or stdin, as PATH (creates or replaces)
//	  stat [-asof T] PATH        show file attributes
//	  mkdir PATH                 create a directory
//	  rm PATH                    unlink a file or empty directory
//	  mv OLD NEW                 rename
//	  call FUNC PATH             invoke a registered function on a file
//	  settype PATH TYPE          assign a defined file type
//	  query STATEMENT            run a POSTQUEL statement, or \d, \dv, \waits, \history
//	  top [-asof T] [INTERVAL [COUNT]]
//	                             metrics deltas every INTERVAL (default 2s), or
//	                             the recorded tick at T
//	  stats                      server operational counters
//	  sh                         interactive shell (transactions!): begin,
//	                             commit, abort, quit, and every command above
//	  migrate PATH CLASS         move a file to another device class
//	  vacuum                     run the vacuum cleaner
//	  scrub                      run the full on-media integrity pass
//
// T is RFC3339 or unix nanoseconds. In sh, a query statement is the
// rest of the line as typed, so spaces inside a quoted constant keep.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/inversion"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:4817", "invd server address")
		owner = flag.String("owner", userName(), "owner name for new files")
	)
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	err := func() error {
		c, err := inversion.Dial(*addr, *owner)
		if err != nil {
			return err
		}
		defer c.Close()
		return run(env{c, os.Stdin, os.Stdout}, args)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "inv:", err)
		os.Exit(1)
	}
}

func userName() string {
	if u := os.Getenv("USER"); u != "" {
		return u
	}
	return "anonymous"
}

// env is what a command runs against: the connection and where its
// input and output go. in is nil inside the shell, whose standard input
// carries the commands themselves.
type env struct {
	c   *inversion.Client
	in  io.Reader
	out io.Writer
}

// command is one entry of the table both front ends dispatch through:
// `inv CMD ARGS...` and a line typed at `inv sh`.
type command struct {
	args     string // argument synopsis
	doc      string
	form     argForm
	min, max int // argument count after any -asof; max < 0 is unbounded
	run      func(e env, asof int64, args []string) error
}

// argForm is how a command's arguments are read beyond plain words.
type argForm int

const (
	argWords argForm = iota
	argAsOf          // a leading -asof T, then words
	argLine          // in sh, the rest of the line as typed, as one argument
)

var commands = map[string]command{
	"ls":      {"[-asof T] [PATH]", "list a directory (optionally as of time T)", argAsOf, 0, 1, ls},
	"cat":     {"[-asof T] PATH", "print a file (optionally a past version)", argAsOf, 1, 1, cat},
	"put":     {"PATH [TEXT...]", "store TEXT, or stdin outside sh, as PATH (creates or replaces)", argWords, 1, -1, put},
	"stat":    {"[-asof T] PATH", "show file attributes", argAsOf, 1, 1, stat},
	"mkdir":   {"PATH", "create a directory", argWords, 1, 1, func(e env, _ int64, a []string) error { return e.c.Mkdir(a[0]) }},
	"rm":      {"PATH", "unlink a file or empty directory", argWords, 1, 1, func(e env, _ int64, a []string) error { return e.c.Unlink(a[0]) }},
	"mv":      {"OLD NEW", "rename", argWords, 2, 2, func(e env, _ int64, a []string) error { return e.c.Rename(a[0], a[1]) }},
	"call":    {"FUNC PATH", "invoke a registered function on a file", argWords, 2, 2, call},
	"settype": {"PATH TYPE", "assign a defined file type", argWords, 2, 2, func(e env, _ int64, a []string) error { return e.c.SetFileType(a[0], a[1]) }},
	"migrate": {"PATH CLASS", "move a file to another device class", argWords, 2, 2, func(e env, _ int64, a []string) error { return e.c.Migrate(a[0], a[1]) }},
	"query":   {"STATEMENT", `run a POSTQUEL statement, or \d, \dv, \waits, \history`, argLine, 1, -1, query},
	"top":     {"[-asof T] [INTERVAL [COUNT]]", "metrics deltas every INTERVAL (default 2s), or the recorded tick at T", argAsOf, 0, 2, top},
	"stats":   {"", "server operational counters", argWords, 0, 0, stats},
	"vacuum":  {"", "run the vacuum cleaner", argWords, 0, 0, vacuum},
	"scrub":   {"", "run the full on-media integrity pass", argWords, 0, 0, scrub},
}

// usage prints the command table.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: inv [-addr host:port] [-owner name] <command> [args]")
	flag.PrintDefaults()
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cmd := commands[name]
		fmt.Fprintf(os.Stderr, "  %-32s %s\n", strings.TrimSpace(name+" "+cmd.args), cmd.doc)
	}
	fmt.Fprintf(os.Stderr, "  %-32s %s\n", "sh", "interactive shell (transactions!)")
}

// run executes one `inv` invocation.
func run(e env, args []string) error {
	if args[0] == "sh" {
		return shell(e)
	}
	return dispatch(e, args[0], args[1:])
}

// dispatch runs one command through the table.
func dispatch(e env, name string, args []string) error {
	cmd, ok := commands[name]
	if !ok {
		return fmt.Errorf("unknown command %q", name)
	}
	var asof int64
	if cmd.form == argAsOf && len(args) >= 2 && args[0] == "-asof" {
		t, err := parseAsOf(args[1])
		if err != nil {
			return err
		}
		asof, args = t, args[2:]
	}
	if len(args) < cmd.min || (cmd.max >= 0 && len(args) > cmd.max) {
		return fmt.Errorf("usage: %s %s", name, cmd.args)
	}
	return cmd.run(e, asof, args)
}

// parseAsOf reads an -asof instant: RFC3339 or unix nanoseconds.
func parseAsOf(s string) (int64, error) {
	if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ns, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return 0, fmt.Errorf("bad -asof %q (want RFC3339 or unix nanoseconds)", s)
	}
	return t.UnixNano(), nil
}

func ls(e env, asof int64, args []string) error {
	path := "/"
	if len(args) > 0 {
		path = args[0]
	}
	entries, err := e.c.ReadDir(path, asof)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		kind := "-"
		if ent.Attr.IsDir() {
			kind = "d"
		}
		fmt.Fprintf(e.out, "%s %-10s %10d  %s  %s\n",
			kind, ent.Attr.Owner, ent.Attr.Size, fmtTime(ent.Attr.MTime), ent.Name)
	}
	return nil
}

func cat(e env, asof int64, args []string) error {
	fd, err := e.c.POpen(args[0], false, asof)
	if err != nil {
		return err
	}
	defer e.c.PClose(fd)
	buf := make([]byte, 64*1024)
	for {
		n, err := e.c.PRead(fd, buf)
		if _, werr := e.out.Write(buf[:n]); werr != nil {
			return werr
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func put(e env, _ int64, args []string) error {
	var data []byte
	switch {
	case len(args) > 1:
		data = []byte(strings.Join(args[1:], " "))
	case e.in == nil:
		return fmt.Errorf("usage: put PATH TEXT... (in sh, standard input carries the commands)")
	default:
		var err error
		if data, err = io.ReadAll(e.in); err != nil {
			return err
		}
	}
	c := e.c
	fd, err := c.PCreat(args[0], inversion.CreateOpts{})
	if err != nil {
		// Replace an existing file.
		fd, err = c.POpen(args[0], true, 0)
		if err != nil {
			return err
		}
		if err := c.PTruncate(fd, 0); err != nil {
			return err
		}
	}
	if _, err := c.PWrite(fd, data); err != nil {
		return err
	}
	return c.PClose(fd)
}

func stat(e env, asof int64, args []string) error {
	a, err := e.c.Stat(args[0], asof)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "file:  %d\nowner: %s\ntype:  %s\nsize:  %d\nclass: %s\nctime: %s\nmtime: %s\natime: %s\nflags: %#x\n",
		a.File, a.Owner, orNone(a.Type), a.Size, orNone(a.Class),
		fmtTime(a.CTime), fmtTime(a.MTime), fmtTime(a.ATime), a.Flags)
	return nil
}

func call(e env, _ int64, args []string) error {
	v, err := e.c.Call(args[0], args[1])
	if err != nil {
		return err
	}
	fmt.Fprintln(e.out, v.String())
	return nil
}

func stats(e env, _ int64, _ []string) error {
	snap, err := e.c.StatsV2()
	if err != nil {
		return fmt.Errorf("fetching metrics snapshot: %w", err)
	}
	fmt.Fprint(e.out, inversion.FormatMetrics(snap))
	return nil
}

// metaCommands expand to catalog queries, so they work against any
// server that serves the catalogs, with no client-side schema.
var metaCommands = map[string]string{
	`\d`: `retrieve (r.oid, r.name, r.kind, r.pages, r.live, r.dead)
		from r in inv_relations sort by r.oid`,
	`\dv`: `retrieve (c.relation, c.column, c.type, c.doc)
		from c in inv_columns sort by c.relation`,
	`\waits`: `retrieve (w.class, w.event, w.op, w.relation, w.samples)
		from w in inv_wait_events sort by w.samples`,
	`\history`: `retrieve (m.name, m.labels, m.kind, m.ticks, m.first_seq, m.last_seq, m.last_value)
		from m in inv_history_meta sort by m.name`,
}

// query runs one statement in the connection's session, so inside a
// transaction it sees that transaction's writes. It prints the
// statement's message, or its rows as a column table.
func query(e env, _ int64, args []string) error {
	q := strings.Join(args, " ")
	if meta, ok := metaCommands[q]; ok {
		q = meta
	} else if strings.HasPrefix(q, `\`) {
		return fmt.Errorf(`unknown meta-command %s (try \d, \dv, \waits or \history)`, q)
	}
	res, err := e.c.Query(q)
	if err != nil {
		return err
	}
	if res.Message != "" {
		fmt.Fprintln(e.out, res.Message)
		return nil
	}
	widths := make([]int, len(res.Columns))
	dashes := make([]string, len(res.Columns))
	table := [][]string{res.Columns, dashes}
	for i, col := range res.Columns {
		widths[i] = len(col)
	}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
			widths[i] = max(widths[i], len(cells[i]))
		}
		table = append(table, cells)
	}
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	for _, cells := range table {
		for i, s := range cells {
			fmt.Fprintf(e.out, "%-*s  ", widths[i], s)
		}
		fmt.Fprintln(e.out)
	}
	fmt.Fprintf(e.out, "(%d rows)\n", len(res.Rows))
	return nil
}

// topCounters is how many counters a top frame shows, largest first.
const topCounters = 15

// top renders the metrics registry as per-interval deltas: polled live
// every INTERVAL, COUNT times or until interrupted, or with -asof
// replayed from the tick the history relations recorded at that
// instant.
func top(e env, asof int64, args []string) error {
	if asof != 0 {
		if len(args) > 0 {
			return fmt.Errorf("usage: top -asof T replays one tick; it takes no INTERVAL or COUNT")
		}
		return replay(e, asof)
	}
	interval, n := 2*time.Second, 0
	if len(args) > 0 {
		d, err := time.ParseDuration(args[0])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad interval %q", args[0])
		}
		interval = d
	}
	if len(args) > 1 {
		c, err := strconv.Atoi(args[1])
		if err != nil || c < 0 {
			return fmt.Errorf("bad count %q", args[1])
		}
		n = c
	}
	differ := inversion.NewHistoryDiffer()
	// Prime the differ so the first frame shows the first interval's
	// deltas, not all-time cumulative values.
	snap, err := e.c.StatsV2()
	if err != nil {
		return err
	}
	differ.Diff(snap, inversion.WaitProfile{})
	for i := 0; n == 0 || i < n; i++ {
		time.Sleep(interval)
		snap, err := e.c.StatsV2()
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "── top  %s  (Δ over %s)\n", time.Now().Format(time.RFC3339), interval)
		render(e.out, differ.Diff(snap, inversion.WaitProfile{}))
	}
	return nil
}

// replay renders the newest tick at or before asof from the history
// relations, over the ordinary query op.
func replay(e env, asof int64) error {
	tick, err := e.c.Query(fmt.Sprintf(
		"retrieve (h.seq, h.wall_ns, h.interval_ns, h.level, h.dropped) from h in inv_history sort by h.seq desc limit 1 asof %d", asof))
	if err != nil {
		return err
	}
	if len(tick.Rows) == 0 {
		return fmt.Errorf("no history tick recorded at or before %s (is the server running with -metrics-history?)", fmtTime(asof))
	}
	row := tick.Rows[0]
	seq, wall, iv, level, dropped := row[0].I, row[1].I, row[2].I, row[3].I, row[4].B
	res, err := e.c.Query(fmt.Sprintf(
		"retrieve (s.name, s.labels, s.kind, s.value) from s in inv_history_samples where s.seq = %d sort by s.name asof %d", seq, asof))
	if err != nil {
		return err
	}
	kind := "raw tick"
	if level != 0 {
		kind = "rollup"
	}
	fmt.Fprintf(e.out, "── top  replaying %s seq %d @ %s  (interval %s)\n", kind, seq, fmtTime(wall), time.Duration(iv))
	if dropped {
		fmt.Fprintln(e.out, "   ⚠ recording attempts before this tick were dropped: the preceding gap lost data")
	}
	samples := make([]inversion.HistorySample, 0, len(res.Rows))
	for _, r := range res.Rows {
		samples = append(samples, inversion.HistorySample{Name: r[0].S, Labels: r[1].S, Kind: r[2].S, Value: r[3].F})
	}
	render(e.out, samples)
	return nil
}

// render prints one frame: counters by delta (largest first), then
// histogram quantiles, then gauges, each section name-stable.
func render(w io.Writer, samples []inversion.HistorySample) {
	var counters, quantiles, gauges []inversion.HistorySample
	for _, s := range samples {
		switch s.Kind {
		case "counter":
			counters = append(counters, s)
		case "quantile":
			quantiles = append(quantiles, s)
		default:
			gauges = append(gauges, s)
		}
	}
	sort.Slice(counters, func(i, j int) bool {
		if counters[i].Value != counters[j].Value {
			return counters[i].Value > counters[j].Value
		}
		return label(counters[i]) < label(counters[j])
	})
	for _, sl := range [][]inversion.HistorySample{quantiles, gauges} {
		sort.Slice(sl, func(i, j int) bool { return label(sl[i]) < label(sl[j]) })
	}

	fmt.Fprintf(w, "%-52s %14s\n", "COUNTER (Δ)", "VALUE")
	for i, s := range counters {
		if i == topCounters {
			fmt.Fprintf(w, "  … %d more\n", len(counters)-i)
			break
		}
		fmt.Fprintf(w, "%-52s %14.0f\n", label(s), s.Value)
	}
	if len(quantiles) > 0 {
		fmt.Fprintf(w, "%-52s %14s\n", "LATENCY", "")
		for _, s := range quantiles {
			fmt.Fprintf(w, "%-52s %14s\n", label(s), time.Duration(int64(s.Value)).String())
		}
	}
	if len(gauges) > 0 {
		fmt.Fprintf(w, "%-52s %14s\n", "GAUGE", "VALUE")
		for _, s := range gauges {
			fmt.Fprintf(w, "%-52s %14.0f\n", label(s), s.Value)
		}
	}
	fmt.Fprintln(w)
}

func label(s inversion.HistorySample) string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

func vacuum(e env, _ int64, _ []string) error {
	rels, scanned, archived, removed, err := e.c.Vacuum()
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "vacuumed %d relations: scanned %d, archived %d, removed %d\n",
		rels, scanned, archived, removed)
	return nil
}

func scrub(e env, _ int64, _ []string) error {
	rep, err := e.c.Scrub()
	if err != nil {
		return err
	}
	fmt.Fprintln(e.out, rep.Summary())
	for _, p := range rep.Corrupt {
		fmt.Fprintf(e.out, "corrupt: %s\n", p)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(e.out, "problem: %s\n", p)
	}
	if !rep.OK() {
		return fmt.Errorf("scrub found problems")
	}
	return nil
}

// shell is an interactive session over one connection, so transactions
// can bracket several commands: begin, several puts, then commit (or
// abort) — the paper's atomic multi-file check-in, by hand.
func shell(e env) error {
	fmt.Fprintln(e.out, "inversion shell — begin/commit/abort, quit, and every inv command")
	sc := bufio.NewScanner(e.in)
	fmt.Fprint(e.out, "inv> ")
	for sc.Scan() {
		if err := shellCmd(env{e.c, nil, e.out}, sc.Text()); err == errQuit {
			return nil
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		fmt.Fprint(e.out, "inv> ")
	}
	return sc.Err()
}

var errQuit = fmt.Errorf("quit")

// shellCmd runs one shell line: the transaction verbs, or a table
// command.
func shellCmd(e env, text string) error {
	f := strings.Fields(text)
	if len(f) == 0 {
		return nil
	}
	switch f[0] {
	case "quit", "exit":
		return errQuit
	case "begin":
		return say(e, e.c.PBegin(), "transaction started")
	case "commit":
		return say(e, e.c.PCommit(), "committed")
	case "abort":
		return say(e, e.c.PAbort(), "aborted")
	}
	name, args := f[0], f[1:]
	if commands[name].form == argLine && len(args) > 0 {
		// As typed: re-joining the fields would collapse the spaces
		// inside a quoted constant.
		args = []string{strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), name))}
	}
	return dispatch(e, name, args)
}

// say prints msg when err is nil and returns err.
func say(e env, err error, msg string) error {
	if err == nil {
		fmt.Fprintln(e.out, msg)
	}
	return err
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func fmtTime(t int64) string {
	if t == 0 {
		return "-"
	}
	return time.Unix(0, t).UTC().Format(time.RFC3339)
}
