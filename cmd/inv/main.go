// Command inv is a file system shell for a running invd server. Every
// operation the paper describes is reachable: ordinary file I/O,
// directory listing, time-travel reads via -asof, typed files,
// function invocation, migration, and vacuuming.
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
//	  stats                      server operational counters
//	  sh                         interactive shell (transactions!): begin,
//	                             commit, abort, quit, and every command above
//	  migrate PATH CLASS         move a file to another device class
//	  vacuum                     run the vacuum cleaner
//	  scrub                      run the full on-media integrity pass
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
	asof     bool // takes a leading -asof T
	min, max int  // argument count after any -asof; max < 0 is unbounded
	run      func(e env, asof int64, args []string) error
}

var commands = map[string]command{
	"ls":      {"[-asof T] [PATH]", "list a directory (optionally as of time T)", true, 0, 1, ls},
	"cat":     {"[-asof T] PATH", "print a file (optionally a past version)", true, 1, 1, cat},
	"put":     {"PATH [TEXT...]", "store TEXT, or stdin outside sh, as PATH (creates or replaces)", false, 1, -1, put},
	"stat":    {"[-asof T] PATH", "show file attributes", true, 1, 1, stat},
	"mkdir":   {"PATH", "create a directory", false, 1, 1, func(e env, _ int64, a []string) error { return e.c.Mkdir(a[0]) }},
	"rm":      {"PATH", "unlink a file or empty directory", false, 1, 1, func(e env, _ int64, a []string) error { return e.c.Unlink(a[0]) }},
	"mv":      {"OLD NEW", "rename", false, 2, 2, func(e env, _ int64, a []string) error { return e.c.Rename(a[0], a[1]) }},
	"call":    {"FUNC PATH", "invoke a registered function on a file", false, 2, 2, call},
	"settype": {"PATH TYPE", "assign a defined file type", false, 2, 2, func(e env, _ int64, a []string) error { return e.c.SetFileType(a[0], a[1]) }},
	"migrate": {"PATH CLASS", "move a file to another device class", false, 2, 2, func(e env, _ int64, a []string) error { return e.c.Migrate(a[0], a[1]) }},
	"stats":   {"", "server operational counters", false, 0, 0, stats},
	"vacuum":  {"", "run the vacuum cleaner", false, 0, 0, vacuum},
	"scrub":   {"", "run the full on-media integrity pass", false, 0, 0, scrub},
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
		fmt.Fprintf(os.Stderr, "  %-26s %s\n", strings.TrimSpace(name+" "+cmd.args), cmd.doc)
	}
	fmt.Fprintf(os.Stderr, "  %-26s %s\n", "sh", "interactive shell (transactions!)")
}

// run executes one `inv` invocation.
func run(e env, args []string) error {
	if args[0] == "sh" {
		return shell(e)
	}
	return dispatch(e, args)
}

// dispatch runs one command line through the table.
func dispatch(e env, args []string) error {
	name, rest := args[0], args[1:]
	cmd, ok := commands[name]
	if !ok {
		return fmt.Errorf("unknown command %q", name)
	}
	var asof int64
	if cmd.asof && len(rest) >= 2 && rest[0] == "-asof" {
		t, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad -asof timestamp %q", rest[1])
		}
		asof, rest = t, rest[2:]
	}
	if len(rest) < cmd.min || (cmd.max >= 0 && len(rest) > cmd.max) {
		return fmt.Errorf("usage: %s %s", name, cmd.args)
	}
	return cmd.run(e, asof, rest)
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
		if fields := strings.Fields(sc.Text()); len(fields) > 0 {
			if err := shellCmd(env{e.c, nil, e.out}, fields); err == errQuit {
				return nil
			} else if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		fmt.Fprint(e.out, "inv> ")
	}
	return sc.Err()
}

var errQuit = fmt.Errorf("quit")

// shellCmd runs one shell line: the transaction verbs, or a table
// command.
func shellCmd(e env, f []string) error {
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
	return dispatch(e, f)
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
