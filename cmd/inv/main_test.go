package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/inversion"
)

// serve starts an in-process server over a fault-injecting memory
// device with a small buffer pool, and returns a connected client. The
// database records metrics history, with one tick taken before serve
// returns for `top -asof` to replay; the interval never fires in a test.
func serve(t *testing.T) (*inversion.Client, *device.Faulty) {
	t.Helper()
	faulty := device.NewFaulty(device.NewMem(nil, 0), 1)
	sw := inversion.NewDeviceSwitch()
	sw.Register(faulty)
	db, err := inversion.Open(sw, inversion.Options{Buffers: 8, MetricsHistory: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RecordMetricsTick(); err != nil {
		t.Fatal(err)
	}
	srv := inversion.NewServer(db)
	srv.SetLogf(func(string, ...any) {})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := inversion.Dial(addr, "tester")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		db.Close()
	})
	return c, faulty
}

// oneShot runs a command line the way `inv CMD ARGS...` does.
func oneShot(c *inversion.Client, stdin, line string) (string, error) {
	var out bytes.Buffer
	err := run(env{c, strings.NewReader(stdin), &out}, strings.Fields(line))
	return out.String(), err
}

// inShell runs a command line the way `inv sh` does.
func inShell(c *inversion.Client, line string) (string, error) {
	var out bytes.Buffer
	err := shellCmd(env{c, nil, &out}, line)
	return out.String(), err
}

// TestShellMatchesCLI: every command both front ends offer prints the
// same thing and accepts the same arguments in both.
func TestShellMatchesCLI(t *testing.T) {
	c, _ := serve(t)
	if _, err := oneShot(c, "", "mkdir /d"); err != nil {
		t.Fatal(err)
	}
	if _, err := oneShot(c, "first version", "put /d/f"); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	asof, rfc := fmt.Sprint(now.UnixNano()), now.UTC().Format(time.RFC3339Nano)
	if _, err := inShell(c, "put /d/f second version"); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"ls /d",
		"ls -asof " + asof + " /d",
		"cat /d/f",
		"cat -asof " + asof + " /d/f",
		"stat /d/f",
		"stat -asof " + asof + " /d/f",
		"call size /d/f",
		`query retrieve (filename, size(file)) where filename = "f"`,
		"top -asof " + asof,
	} {
		cli, cliErr := oneShot(c, "", line)
		sh, shErr := inShell(c, line)
		if cliErr != nil || shErr != nil {
			t.Errorf("%s: cli err %v, shell err %v", line, cliErr, shErr)
			continue
		}
		if cli != sh {
			t.Errorf("%s:\ncli:\n%s\nshell:\n%s", line, cli, sh)
		}
	}
	for _, at := range []string{asof, rfc} {
		if out, _ := oneShot(c, "", "cat -asof "+at+" /d/f"); out != "first version" {
			t.Errorf("cat -asof %s = %q, want the first version", at, out)
		}
	}
	if out, _ := oneShot(c, "", "ls /d"); !strings.Contains(out, "tester") {
		t.Errorf("ls does not show the owner:\n%s", out)
	}
}

// TestCatReportsReadErrors: a read that fails after the open succeeded
// is an error in both front ends, not a silently short file.
func TestCatReportsReadErrors(t *testing.T) {
	c, faulty := serve(t)
	data := strings.Repeat("x", 16*inversion.ChunkSize)
	if _, err := oneShot(c, data, "put /big"); err != nil {
		t.Fatal(err)
	}
	a, err := c.Stat("/big", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The file's chunk pages no longer fit in the 8-frame pool, so the
	// first read goes to the device, which now refuses it.
	faulty.FailIf(device.FaultRead, func(rel device.OID, _ uint32) bool { return rel == a.File }, nil)
	if _, err := oneShot(c, "", "cat /big"); err == nil {
		t.Error("cat: read error swallowed")
	}
	if _, err := inShell(c, "cat /big"); err == nil {
		t.Error("shell cat: read error swallowed")
	}
}

// TestShellTransaction: the shell brackets table commands in one
// transaction over its connection.
func TestShellTransaction(t *testing.T) {
	c, _ := serve(t)
	var out bytes.Buffer
	script := "begin\nput /t aborted\nabort\nbegin\nput /u kept\ncommit\nquit\nput /never reached\n"
	if err := shell(env{c, strings.NewReader(script), &out}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/t", 0); err == nil {
		t.Error("aborted put is visible")
	}
	if got, err := oneShot(c, "", "cat /u"); err != nil || got != "kept" {
		t.Errorf("committed put: %q, %v", got, err)
	}
	if _, err := c.Stat("/never", 0); err == nil {
		t.Error("shell ran a line after quit")
	}
	if !strings.Contains(out.String(), "committed") {
		t.Errorf("shell output:\n%s", out.String())
	}
}

// TestQueryInTransaction: a query typed at the shell runs in the shell's
// transaction, so it sees that transaction's uncommitted writes and
// stops seeing them after abort. The statement reaches the server as
// typed, spaces inside a quoted constant included.
func TestQueryInTransaction(t *testing.T) {
	c, _ := serve(t)
	if err := c.Mkdir("/a  b"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ line, want string }{
		{"begin", "transaction started"},
		{"put /x hi", ""},
		{`query retrieve (filename) where filename = "x"`, "(1 rows)"},
		{`query  retrieve (filename)   where filename = "a  b"`, "(1 rows)"},
		{"abort", "aborted"},
		{`query retrieve (filename) where filename = "x"`, "(0 rows)"},
	} {
		out, err := inShell(c, step.line)
		if err != nil || !strings.Contains(out, step.want) {
			t.Fatalf("%s: err %v, output:\n%s\nwant %q", step.line, err, out, step.want)
		}
	}
}

// TestQueryErrors: a statement the server rejects, and a meta-command
// nobody defined, are errors (so `inv query` exits nonzero), whatever
// rows exist.
func TestQueryErrors(t *testing.T) {
	c, _ := serve(t)
	for _, line := range []string{
		"query retrieve (nosuch) where 1 = 2",
		"query retrieve (filename",
		`query \nope`,
		"query",
	} {
		if out, err := oneShot(c, "", line); err == nil {
			t.Errorf("%s: no error, output:\n%s", line, out)
		}
	}
}

// TestQueryMetaCommands: each meta-command expands to a catalog query
// and prints its header row.
func TestQueryMetaCommands(t *testing.T) {
	c, _ := serve(t)
	for meta, first := range map[string]string{`\d`: "oid", `\dv`: "relation", `\waits`: "class", `\history`: "name"} {
		out, err := oneShot(c, "", "query "+meta)
		if err != nil {
			t.Errorf("%s: %v", meta, err)
			continue
		}
		lines := strings.Split(out, "\n")
		if !strings.HasPrefix(lines[0], first+" ") || !strings.HasPrefix(lines[1], "---") {
			t.Errorf("%s: no header row starting %q:\n%s", meta, first, out)
		}
	}
}

// TestTop: live mode prints one frame per interval for COUNT intervals;
// -asof replays the recorded tick, given RFC3339 or unix nanoseconds,
// and is an error before the first tick.
func TestTop(t *testing.T) {
	c, _ := serve(t)
	out, err := oneShot(c, "", "top 10ms 2")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, "── top "); n != 2 {
		t.Errorf("top 10ms 2 printed %d frames:\n%s", n, out)
	}
	now := time.Now()
	for _, at := range []string{fmt.Sprint(now.UnixNano()), now.UTC().Format(time.RFC3339Nano)} {
		out, err := oneShot(c, "", "top -asof "+at)
		if err != nil || !strings.Contains(out, "replaying raw tick seq 1 ") || !strings.Contains(out, "COUNTER") {
			t.Errorf("top -asof %s: err %v, output:\n%s", at, err, out)
		}
	}
	for _, line := range []string{"top -asof 1", "top -asof yesterday", "top -asof 1 10ms", "top 0s", "top 10ms many"} {
		if _, err := oneShot(c, "", line); err == nil {
			t.Errorf("%s: no error", line)
		}
	}
}
