// Command inv is a file system shell for a running invd server. Every
// operation the paper describes is reachable: ordinary file I/O,
// directory listing, time-travel reads via -asof, typed files,
// function invocation, migration, and vacuuming.
//
//	inv [-addr host:port] [-owner name] <command> [args]
//
//	  ls [-asof T] PATH          list a directory (optionally as of time T)
//	  cat [-asof T] PATH         print a file (optionally a past version)
//	  put PATH                   store stdin as PATH (creates or replaces)
//	  stat [-asof T] PATH        show file attributes
//	  mkdir PATH                 create a directory
//	  rm PATH                    unlink a file or empty directory
//	  mv OLD NEW                 rename
//	  call FUNC PATH             invoke a registered function on a file
//	  settype PATH TYPE          assign a defined file type
//	  stats                      server operational counters
//	  sh                         interactive shell (transactions!)
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
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*addr, *owner, args); err != nil {
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

// parseAsOf pulls a leading "-asof T" out of the argument list.
func parseAsOf(args []string) (int64, []string, error) {
	if len(args) >= 2 && args[0] == "-asof" {
		t, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("bad -asof timestamp %q", args[1])
		}
		return t, args[2:], nil
	}
	return 0, args, nil
}

func run(addr, owner string, args []string) error {
	c, err := inversion.Dial(addr, owner)
	if err != nil {
		return err
	}
	defer c.Close()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ls":
		asof, rest, err := parseAsOf(rest)
		if err != nil {
			return err
		}
		path := "/"
		if len(rest) > 0 {
			path = rest[0]
		}
		entries, err := c.ReadDir(path, asof)
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "-"
			if e.Attr.IsDir() {
				kind = "d"
			}
			fmt.Printf("%s %-10s %10d  %s  %s\n",
				kind, e.Attr.Owner, e.Attr.Size, fmtTime(e.Attr.MTime), e.Name)
		}
		return nil
	case "cat":
		asof, rest, err := parseAsOf(rest)
		if err != nil {
			return err
		}
		if len(rest) != 1 {
			return fmt.Errorf("usage: cat [-asof T] PATH")
		}
		fd, err := c.POpen(rest[0], false, asof)
		if err != nil {
			return err
		}
		defer c.PClose(fd)
		buf := make([]byte, 64*1024)
		for {
			n, err := c.PRead(fd, buf)
			if n > 0 {
				if _, werr := os.Stdout.Write(buf[:n]); werr != nil {
					return werr
				}
			}
			if err == io.EOF || n == 0 {
				return nil
			}
			if err != nil {
				return err
			}
		}
	case "put":
		if len(rest) != 1 {
			return fmt.Errorf("usage: put PATH < data")
		}
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		fd, err := c.PCreat(rest[0], inversion.CreateOpts{})
		if err != nil {
			// Replace an existing file.
			fd, err = c.POpen(rest[0], true, 0)
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
	case "stat":
		asof, rest, err := parseAsOf(rest)
		if err != nil {
			return err
		}
		if len(rest) != 1 {
			return fmt.Errorf("usage: stat [-asof T] PATH")
		}
		a, err := c.Stat(rest[0], asof)
		if err != nil {
			return err
		}
		fmt.Printf("file:  %d\nowner: %s\ntype:  %s\nsize:  %d\nclass: %s\nctime: %s\nmtime: %s\natime: %s\nflags: %#x\n",
			a.File, a.Owner, orNone(a.Type), a.Size, orNone(a.Class),
			fmtTime(a.CTime), fmtTime(a.MTime), fmtTime(a.ATime), a.Flags)
		return nil
	case "mkdir":
		if len(rest) != 1 {
			return fmt.Errorf("usage: mkdir PATH")
		}
		return c.Mkdir(rest[0])
	case "rm":
		if len(rest) != 1 {
			return fmt.Errorf("usage: rm PATH")
		}
		return c.Unlink(rest[0])
	case "mv":
		if len(rest) != 2 {
			return fmt.Errorf("usage: mv OLD NEW")
		}
		return c.Rename(rest[0], rest[1])
	case "call":
		if len(rest) != 2 {
			return fmt.Errorf("usage: call FUNC PATH")
		}
		v, err := c.Call(rest[0], rest[1])
		if err != nil {
			return err
		}
		fmt.Println(v.String())
		return nil
	case "settype":
		if len(rest) != 2 {
			return fmt.Errorf("usage: settype PATH TYPE")
		}
		return c.SetFileType(rest[0], rest[1])
	case "migrate":
		if len(rest) != 2 {
			return fmt.Errorf("usage: migrate PATH CLASS")
		}
		return c.Migrate(rest[0], rest[1])
	case "vacuum":
		rels, scanned, archived, removed, err := c.Vacuum()
		if err != nil {
			return err
		}
		fmt.Printf("vacuumed %d relations: scanned %d, archived %d, removed %d\n",
			rels, scanned, archived, removed)
		return nil
	case "scrub":
		rep, err := c.Scrub()
		if err != nil {
			return err
		}
		fmt.Println(rep.Summary())
		for _, p := range rep.Corrupt {
			fmt.Printf("corrupt: %s\n", p)
		}
		for _, p := range rep.Problems {
			fmt.Printf("problem: %s\n", p)
		}
		if !rep.OK() {
			return fmt.Errorf("scrub found problems")
		}
		return nil
	case "stats":
		snap, err := c.StatsV2()
		if err != nil {
			return fmt.Errorf("fetching metrics snapshot: %w", err)
		}
		fmt.Print(inversion.FormatMetrics(snap))
		return nil
	case "sh":
		return shell(c)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// shell is an interactive session over one connection, so transactions
// can bracket several commands: begin, several puts, then commit (or
// abort) — the paper's atomic multi-file check-in, by hand.
func shell(c *inversion.Client) error {
	fmt.Println("inversion shell — begin/commit/abort, ls, cat, put PATH TEXT, rm, mv, mkdir, stat, quit")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("inv> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			if err := shellCmd(c, fields); err != nil {
				if err == errQuit {
					return nil
				}
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		fmt.Print("inv> ")
	}
	return sc.Err()
}

var errQuit = fmt.Errorf("quit")

func shellCmd(c *inversion.Client, f []string) error {
	switch f[0] {
	case "quit", "exit":
		return errQuit
	case "begin":
		if err := c.PBegin(); err != nil {
			return err
		}
		fmt.Println("transaction started")
		return nil
	case "commit":
		if err := c.PCommit(); err != nil {
			return err
		}
		fmt.Println("committed")
		return nil
	case "abort":
		if err := c.PAbort(); err != nil {
			return err
		}
		fmt.Println("aborted")
		return nil
	case "ls":
		path := "/"
		if len(f) > 1 {
			path = f[1]
		}
		entries, err := c.ReadDir(path, 0)
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "-"
			if e.Attr.IsDir() {
				kind = "d"
			}
			fmt.Printf("%s %10d  %s\n", kind, e.Attr.Size, e.Name)
		}
		return nil
	case "cat":
		if len(f) != 2 {
			return fmt.Errorf("usage: cat PATH")
		}
		fd, err := c.POpen(f[1], false, 0)
		if err != nil {
			return err
		}
		defer c.PClose(fd)
		buf := make([]byte, 64*1024)
		for {
			n, err := c.PRead(fd, buf)
			if n > 0 {
				os.Stdout.Write(buf[:n])
			}
			if err != nil || n == 0 {
				fmt.Println()
				return nil
			}
		}
	case "put":
		if len(f) < 3 {
			return fmt.Errorf("usage: put PATH TEXT...")
		}
		data := []byte(strings.Join(f[2:], " "))
		fd, err := c.PCreat(f[1], inversion.CreateOpts{})
		if err != nil {
			fd, err = c.POpen(f[1], true, 0)
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
	case "rm":
		if len(f) != 2 {
			return fmt.Errorf("usage: rm PATH")
		}
		return c.Unlink(f[1])
	case "mv":
		if len(f) != 3 {
			return fmt.Errorf("usage: mv OLD NEW")
		}
		return c.Rename(f[1], f[2])
	case "mkdir":
		if len(f) != 2 {
			return fmt.Errorf("usage: mkdir PATH")
		}
		return c.Mkdir(f[1])
	case "stat":
		if len(f) != 2 {
			return fmt.Errorf("usage: stat PATH")
		}
		a, err := c.Stat(f[1], 0)
		if err != nil {
			return err
		}
		fmt.Printf("oid %d  size %d  owner %s  type %s\n", a.File, a.Size, a.Owner, orNone(a.Type))
		return nil
	default:
		return fmt.Errorf("unknown shell command %q", f[0])
	}
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
