// Command invql is the POSTQUEL query monitor: an interactive shell for
// running retrieve and define statements against a running invd server,
// the equivalent of "the query language monitor program" the paper's
// users ran for ad hoc queries over the file system.
//
//	invql [-addr host:port] [-c "retrieve (filename) where ..."]
//
// Without -c it reads statements from stdin, one per line; "asof N" may
// trail a retrieve to query the past. Meta-commands: \d lists heap and
// index relations (from inv_relations), \dv lists every relation a from
// clause can name, with its columns (from inv_columns), \history lists
// the recorded metrics-history series (from inv_history_meta), \q quits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/inversion"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:4817", "invd server address")
		cmd  = flag.String("c", "", "execute one statement and exit (nonzero on error)")
		expr = flag.String("e", "", "alias for -c")
	)
	flag.Parse()
	if *cmd == "" {
		*cmd = *expr
	}
	if err := run(*addr, *cmd); err != nil {
		fmt.Fprintln(os.Stderr, "invql:", err)
		os.Exit(1)
	}
}

func run(addr, cmd string) error {
	c, err := inversion.Dial(addr, "invql")
	if err != nil {
		return err
	}
	defer c.Close()

	if cmd != "" {
		// One-shot mode: the error (if any) goes to stderr via main and
		// the process exits nonzero, so scripts can branch on it.
		return exec(c, cmd)
	}
	fmt.Println("Inversion POSTQUEL monitor — retrieve (...) where ... | define type ... | \\d | \\dv | \\waits | \\history | quit")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("* ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "quit" || line == "\\q" || line == "exit":
			return nil
		default:
			if err := exec(c, line); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		fmt.Print("* ")
	}
	return sc.Err()
}

// Meta-commands expand to catalog queries, so they work against any
// server that serves the catalogs — no client-side schema.
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

func exec(c *inversion.Client, q string) error {
	if meta, ok := metaCommands[strings.TrimSpace(q)]; ok {
		q = meta
	} else if strings.HasPrefix(strings.TrimSpace(q), `\`) {
		return fmt.Errorf(`unknown command %q (try \d, \dv, \waits, \history, or \q)`, q)
	}
	res, err := c.Query(q)
	if err != nil {
		return err
	}
	if res.Message != "" {
		fmt.Println(res.Message)
		return nil
	}
	// Column widths.
	widths := make([]int, len(res.Columns))
	for i, col := range res.Columns {
		widths[i] = len(col)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			cells[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	for i, col := range res.Columns {
		fmt.Printf("%-*s  ", widths[i], col)
	}
	fmt.Println()
	for i := range res.Columns {
		fmt.Print(strings.Repeat("-", widths[i]), "  ")
	}
	fmt.Println()
	for _, row := range cells {
		for i, s := range row {
			fmt.Printf("%-*s  ", widths[i], s)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
	return nil
}
