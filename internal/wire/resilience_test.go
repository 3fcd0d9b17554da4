package wire

// Resilience tests: connection lifecycle, handler panic isolation,
// deadlock surfaced over the wire, the idle-session reaper, and the
// reconnecting client. These exercise the server and client against the
// failure modes the paper's client/server split exposes: a dead client
// must not pin its locks, a poisoned request must not kill the server,
// and a restarted server must be transparent to read-only callers while
// in-transaction mutations fail loudly.

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
)

// restartServer brings a fresh server up over an existing database on a
// specific address (the one a closed server just vacated).
func restartServer(t *testing.T, db *core.DB, addr string, cfg ServerConfig) *Server {
	t.Helper()
	srv := NewServerWith(db, cfg)
	srv.SetLogf(func(string, ...any) {})
	if _, err := srv.Listen(addr); err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// autocommitCreate creates path outside any transaction.
func autocommitCreate(t *testing.T, c *Client, path string) {
	t.Helper()
	fd, err := c.PCreat(path, core.CreateOpts{})
	if err != nil {
		t.Fatalf("creating %s: %v", path, err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatalf("closing %s: %v", path, err)
	}
}

// TestServerCloseDrainsMidRequest: Close must let an in-flight request
// finish and must return within a bounded multiple of the grace period
// even though the (idle) connection never hangs up on its own.
func TestServerCloseDrainsMidRequest(t *testing.T) {
	cfg := ServerConfig{IdleTimeout: time.Minute, GracePeriod: 400 * time.Millisecond}
	hook := func(op byte, payload []byte) {
		if op == OpStatsV2 {
			time.Sleep(150 * time.Millisecond)
		}
	}
	srv, addr, _ := startServerCfg(t, cfg, hook)
	c := dial(t, addr, "drain")

	done := make(chan error, 1)
	go func() {
		_, err := c.StatsV2()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the slow handler

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	elapsed := time.Since(start)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	// Two grace periods (drain, then force-close settle) plus slack.
	if elapsed > 3*time.Second {
		t.Fatalf("Close took %v; shutdown is not bounded", elapsed)
	}
}

// TestServerCloseEndsIdleConnections: an idle connection never hangs up
// on its own, so Close must end it rather than wait out the grace
// period for it — with an idle client, with or without an open
// transaction, Close returns in well under the grace period, and the
// idle transaction is aborted, its locks released and its work undone.
func TestServerCloseEndsIdleConnections(t *testing.T) {
	srv, addr, db := startServerCfg(t, ServerConfig{IdleTimeout: time.Minute, GracePeriod: 2 * time.Second}, nil)
	idle := dial(t, addr, "idle")
	if _, err := idle.Stat("/", 0); err != nil {
		t.Fatal(err)
	}
	inTx := dial(t, addr, "idle-in-tx")
	if err := inTx.PBegin(); err != nil {
		t.Fatal(err)
	}
	if err := inTx.Mkdir("/held"); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Fatalf("Close with idle clients took %v, want < 100ms", elapsed)
	}
	if err := db.NewSession("after").Mkdir("/held"); err != nil {
		t.Fatalf("the idle transaction's mkdir survived Close or kept its lock: %v", err)
	}
}

// TestHandlerPanicIsolated: a request that panics inside its handler
// must produce an error reply and a torn-down connection — with the
// panicking transaction's locks released — while the server keeps
// serving everyone else.
func TestHandlerPanicIsolated(t *testing.T) {
	hook := func(op byte, payload []byte) {
		if op == OpMkdir && bytes.Contains(payload, []byte("boom")) {
			panic("injected handler fault")
		}
	}
	_, addr, _ := startServerCfg(t, ServerConfig{IdleTimeout: time.Minute}, hook)

	c1 := dial(t, addr, "victim")
	if err := c1.PBegin(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Mkdir("/held"); err != nil {
		t.Fatal(err)
	}
	err := c1.Mkdir("/boom")
	if err == nil || !strings.Contains(err.Error(), "internal server error") {
		t.Fatalf("panicked request error = %v, want internal server error", err)
	}
	// The connection was torn down after the reply; the non-reconnecting
	// client fails fast from here on.
	if _, err := c1.Stat("/", 0); !errors.Is(err, ErrConnLost) {
		t.Fatalf("call after panic teardown = %v, want ErrConnLost", err)
	}

	// The server survived and the victim's transaction was aborted:
	// another client can take the same locks and commit.
	c2 := dial(t, addr, "survivor")
	if err := c2.PBegin(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Mkdir("/held"); err != nil {
		t.Fatalf("locks not released after panic teardown: %v", err)
	}
	if err := c2.PCommit(); err != nil {
		t.Fatal(err)
	}
}

// TestWireDeadlockSurfaced: a deadlock between two remote transactions
// must reach the victim as txn.ErrDeadlock (matchable with errors.Is
// across the wire), and aborting the victim must free the survivor to
// commit.
func TestWireDeadlockSurfaced(t *testing.T) {
	_, addr, _ := startServerCfg(t, ServerConfig{IdleTimeout: time.Minute}, nil)
	c1 := dial(t, addr, "t1")
	c2 := dial(t, addr, "t2")
	autocommitCreate(t, c1, "/a")
	autocommitCreate(t, c1, "/b")

	if err := c1.PBegin(); err != nil {
		t.Fatal(err)
	}
	if err := c2.PBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.POpen("/a", true, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.POpen("/b", true, 0); err != nil {
		t.Fatal(err)
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := c2.POpen("/a", true, 0) // queues behind c1's lock
		blocked <- err
	}()
	time.Sleep(100 * time.Millisecond) // let c2 start waiting server-side

	_, err := c1.POpen("/b", true, 0) // closes the cycle; c1 is the victim
	if !errors.Is(err, txn.ErrDeadlock) {
		t.Fatalf("deadlock victim error = %v, want txn.ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "deadlock detected") {
		t.Fatalf("deadlock message = %q", err.Error())
	}

	// Victim aborts; the survivor's blocked open proceeds and commits.
	if err := c1.PAbort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("survivor open after victim abort: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor still blocked after victim aborted")
	}
	if err := c2.PCommit(); err != nil {
		t.Fatalf("survivor commit: %v", err)
	}
}

// TestReaperFreesDeadClientLocks: a client that goes silent while
// holding locks (a kill -9'd process with its socket still open) must
// have its transaction reaped after the idle timeout so waiters get the
// locks; if the client comes back it is told distinctly that its
// transaction was reaped, and the connection keeps serving.
func TestReaperFreesDeadClientLocks(t *testing.T) {
	cfg := ServerConfig{IdleTimeout: 200 * time.Millisecond, GracePeriod: time.Second}
	_, addr, _ := startServerCfg(t, cfg, nil)

	c1 := dial(t, addr, "frozen")
	autocommitCreate(t, c1, "/locked")
	if err := c1.PBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.POpen("/locked", true, 0); err != nil {
		t.Fatal(err)
	}
	// c1 now goes silent, holding an exclusive lock.

	c2 := dial(t, addr, "heir")
	if err := c2.PBegin(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c2.POpen("/locked", true, 0); err != nil {
		t.Fatalf("waiter after reap: %v", err)
	}
	waited := time.Since(start)
	if waited < 100*time.Millisecond {
		t.Fatalf("lock granted after %v; it was never held", waited)
	}

	// The frozen client wakes up: its next request is answered with the
	// distinct reap error, not a generic failure, and the connection
	// stays usable.
	err := c1.PCommit()
	if !errors.Is(err, core.ErrReaped) {
		t.Fatalf("commit after reap = %v, want core.ErrReaped", err)
	}
	if _, err := c1.Stat("/locked", 0); err != nil {
		t.Fatalf("connection unusable after reap reply: %v", err)
	}

	if err := c2.PCommit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadConnAbortsTransaction: when a lock-holding client's socket
// closes outright (process killed, FIN delivered), the server aborts
// its transaction on EOF and waiters proceed.
func TestDeadConnAbortsTransaction(t *testing.T) {
	_, addr, _ := startServerCfg(t, ServerConfig{IdleTimeout: time.Minute}, nil)
	c1 := dial(t, addr, "killed")
	autocommitCreate(t, c1, "/k")
	if err := c1.PBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.POpen("/k", true, 0); err != nil {
		t.Fatal(err)
	}
	c1.Close() // dies without aborting

	c2 := dial(t, addr, "after")
	if err := c2.PBegin(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c2.POpen("/k", true, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("open after client death: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead client's locks never released")
	}
	if err := c2.PCommit(); err != nil {
		t.Fatal(err)
	}
}

// TestClientReconnectsAfterServerRestart: a reconnecting client must
// ride out a server restart — backing off until the listener is back —
// and then complete a read successfully.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv1, addr, db := startServerCfg(t, ServerConfig{GracePeriod: 100 * time.Millisecond}, nil)
	c, err := DialWithConfig(DialConfig{
		Addr: addr, Owner: "phoenix",
		MaxRetries:  8,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	fd, err := c.PCreat("/r.txt", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}

	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	// Bring the server back only after a delay, so the client's first
	// reconnect attempts fail and it has to back off.
	const downFor = 100 * time.Millisecond
	restarted := make(chan *Server, 1)
	go func() {
		time.Sleep(downFor)
		srv := NewServerWith(db, ServerConfig{})
		srv.SetLogf(func(string, ...any) {})
		if _, err := srv.Listen(addr); err != nil {
			srv = nil
		}
		restarted <- srv
	}()

	start := time.Now()
	attr, err := c.Stat("/r.txt", 0)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if attr.Size != int64(len("survives")) {
		t.Fatalf("stat size = %d, want %d", attr.Size, len("survives"))
	}
	if time.Since(start) < downFor {
		t.Fatalf("read succeeded in %v, before the server was back", time.Since(start))
	}
	srv2 := <-restarted
	if srv2 == nil {
		t.Fatal("restarted server failed to listen")
	}
	t.Cleanup(func() { srv2.Close() })
}

// TestInTxMutationNotRetriedOnConnLoss: losing the connection mid-
// transaction must abort the transaction, fail the interrupted mutation
// with ErrConnLost rather than silently replaying it (the restarted
// server is listening, so a retry WOULD succeed if attempted), report
// the loss at commit, and leave the client able to run a fresh
// transaction end to end.
func TestInTxMutationNotRetriedOnConnLoss(t *testing.T) {
	srv1, addr, db := startServerCfg(t, ServerConfig{GracePeriod: 100 * time.Millisecond}, nil)
	c, err := DialWithConfig(DialConfig{
		Addr: addr, Owner: "cursed",
		MaxRetries:  8,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if err := c.PBegin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/pre"); err != nil {
		t.Fatal(err)
	}

	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	restartServer(t, db, addr, ServerConfig{})

	err = c.Mkdir("/lost")
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("in-tx mutation after conn loss = %v, want ErrConnLost", err)
	}
	err = c.PCommit()
	if !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), "transaction lost") {
		t.Fatalf("commit after conn loss = %v, want transaction-lost ErrConnLost", err)
	}

	// A fresh transaction reconnects and works end to end.
	if err := c.PBegin(); err != nil {
		t.Fatalf("begin after reconnect: %v", err)
	}
	if err := c.Mkdir("/after"); err != nil {
		t.Fatal(err)
	}
	if err := c.PCommit(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Stat("/lost", 0); err == nil {
		t.Fatal("interrupted in-tx mutation was silently retried")
	}
	if _, err := c.Stat("/pre", 0); err == nil {
		t.Fatal("aborted transaction's mkdir is visible")
	}
	if _, err := c.Stat("/after", 0); err != nil {
		t.Fatalf("post-reconnect commit not visible: %v", err)
	}
}

// TestTxLostFailsMutationsAfterSilentReadRetry: when the connection
// dies mid-transaction and a retryable read is what discovers the loss
// (reconnecting silently), a subsequent mutation must NOT run in
// autocommit on the fresh connection — it fails with ErrConnLost until
// the application starts over, or the re-run of the transaction would
// duplicate it.
func TestTxLostFailsMutationsAfterSilentReadRetry(t *testing.T) {
	srv1, addr, db := startServerCfg(t, ServerConfig{GracePeriod: 100 * time.Millisecond}, nil)
	c, err := DialWithConfig(DialConfig{
		Addr: addr, Owner: "sneaky",
		MaxRetries:  8,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if err := c.PBegin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/pre"); err != nil {
		t.Fatal(err)
	}

	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	restartServer(t, db, addr, ServerConfig{})

	// The read discovers the loss and silently reconnects.
	if _, err := c.Stat("/", 0); err != nil {
		t.Fatalf("idempotent read after conn loss: %v", err)
	}
	// Every mutation inside the dead bracket must now fail loudly.
	if err := c.Mkdir("/lost"); !errors.Is(err, ErrConnLost) {
		t.Fatalf("mkdir after silent read retry = %v, want ErrConnLost", err)
	}
	if err := c.Rename("/pre", "/moved"); !errors.Is(err, ErrConnLost) {
		t.Fatalf("rename after silent read retry = %v, want ErrConnLost", err)
	}
	if err := c.PCommit(); !errors.Is(err, ErrConnLost) {
		t.Fatalf("commit after conn loss = %v, want ErrConnLost", err)
	}

	// Nothing from the dead bracket reached the store, and the re-run
	// applies exactly once.
	if _, err := c.Stat("/lost", 0); err == nil {
		t.Fatal("post-loss mutation slipped into autocommit")
	}
	if err := c.PBegin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/lost"); err != nil {
		t.Fatalf("re-run mkdir: %v", err)
	}
	if err := c.PCommit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/lost", 0); err != nil {
		t.Fatalf("re-run commit not visible: %v", err)
	}
}

// TestCloseInterruptsRetryingCall: Close must not wait behind a call
// that is sleeping out its reconnect backoff schedule, and the call
// itself must fail promptly with ErrConnLost instead of exhausting its
// retries against a server that is never coming back.
func TestCloseInterruptsRetryingCall(t *testing.T) {
	srv, addr, _ := startServerCfg(t, ServerConfig{GracePeriod: 50 * time.Millisecond}, nil)
	c, err := DialWithConfig(DialConfig{
		Addr: addr, Owner: "impatient",
		MaxRetries:  1000,
		BackoffBase: 200 * time.Millisecond,
		BackoffMax:  5 * time.Second,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Stat("/", 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call enter the retry loop

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close blocked %v behind a retrying call", elapsed)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("interrupted call = %v, want ErrConnLost", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("retrying call not interrupted by Close")
	}
}

// TestBrokenClientFailsFast: with reconnection disabled, the first
// transport error marks the client broken and later calls fail
// immediately with ErrConnLost instead of hanging on a dead socket.
func TestBrokenClientFailsFast(t *testing.T) {
	srv, addr, _ := startServerCfg(t, ServerConfig{GracePeriod: 50 * time.Millisecond}, nil)
	c := dial(t, addr, "broken")
	if _, err := c.Stat("/", 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/", 0); !errors.Is(err, ErrConnLost) {
		t.Fatalf("first call on dead conn = %v, want ErrConnLost", err)
	}
	start := time.Now()
	if _, err := c.Stat("/", 0); !errors.Is(err, ErrConnLost) {
		t.Fatalf("second call = %v, want ErrConnLost", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("broken client took %v to fail; want fail-fast", elapsed)
	}
}
