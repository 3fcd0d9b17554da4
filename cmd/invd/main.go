// Command invd is the Inversion file server daemon: it opens (or
// bootstraps) a database over the configured devices, registers the
// standard file types and classification functions, and serves the
// Inversion protocol over TCP. Clients link the wire client library
// (the paper's "special library") or use the inv tool.
//
// Usage:
//
//	invd -addr :4817 -buffers 300 -devices disk,jukebox,mem
//	invd -addr :4817 -data /var/lib/inversion.db
//
// With -devices the database lives in memory behind simulated devices
// and a restart starts empty. With -data it lives in one file on the
// host file system, and a restart over the same file resumes it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/inversion"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:4817", "listen address")
		buffers = flag.Int("buffers", 300, "shared buffer cache pages")
		devices = flag.String("devices", "disk,mem", "comma-separated device classes: disk, mem, jukebox")
		dflt    = flag.String("default", "", "default device class for new files")
		data    = flag.String("data", "", "backing file for a persistent database (overrides -devices)")
		idle    = flag.Duration("idle-timeout", inversion.DefaultIdleTimeout,
			"abort a connection's transaction (releasing its locks) after this much silence; the connection is dropped after twice this")
		grace = flag.Duration("grace", inversion.DefaultGracePeriod,
			"shutdown drain budget for in-flight requests before their connections are force-closed (idle connections close at once)")
		metricsAddr = flag.String("metrics-addr", "",
			"optional HTTP listen address serving /metrics (Prometheus text), /debug/pprof/*, and /traces/recent (JSON)")
		slowOp = flag.Duration("slow-op", 0,
			"log any request whose handling takes at least this long, with per-layer latency attribution (0 disables the log; the trace ring always runs)")
		bgWriter = flag.Bool("bg-writer", true,
			"run the background page writer, so eviction writebacks and most of each commit's data flush happen off the foreground path")
		ckptEvery = flag.Duration("checkpoint-every", time.Minute,
			"interval between transaction-log checkpoints, which bound how much log a restart must eagerly read (0 disables)")
		commitWindow = flag.Duration("commit-window", 0,
			"how long a group-commit leader holds the log force open for other committers to join its batch (0 forces immediately; try 2ms on sync-bound devices)")
		scrubOnStart = flag.Bool("scrub-on-start", false,
			"run the full integrity scrub (media, B-trees, namespace, chunks, txn log) after opening the database and refuse to serve if it is not clean")
		flightDump = flag.String("flight-dump", "",
			"path the flight-recorder bundle is written to on handler panic, scrub-on-start failure, or SIGUSR1 (empty = invd-flight-<pid>.json in the working directory)")
		metricsHistory = flag.Duration("metrics-history", 0,
			"record the metrics registry into the inv_history/inv_history_samples relations at this interval, so statistics history is queryable (and time-travelable with asof, e.g. from inv top -asof) like any other data (0 disables; the relations are only created once enabled)")
	)
	flag.Parse()
	opts := inversion.Options{
		Buffers:           *buffers,
		BackgroundWriter:  *bgWriter,
		CheckpointEvery:   *ckptEvery,
		GroupCommitWindow: *commitWindow,
		MetricsHistory:    *metricsHistory,
	}
	if err := run(*addr, opts, *devices, *dflt, *data, *idle, *grace, *metricsAddr, *slowOp, *scrubOnStart, *flightDump); err != nil {
		fmt.Fprintln(os.Stderr, "invd:", err)
		os.Exit(1)
	}
}

// dumpFlight writes the flight-recorder bundle (plus the current wait
// profile, when a database is up) to the configured path. Best-effort:
// it runs on the way down from panics and failed scrubs, so errors are
// logged, never returned.
func dumpFlight(path, reason string, db *inversion.DB) {
	if path == "" {
		path = fmt.Sprintf("invd-flight-%d.json", os.Getpid())
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("invd: flight dump: %v", err)
		return
	}
	var profile *inversion.WaitProfile
	if db != nil {
		p := db.WaitProfile()
		profile = &p
	}
	err = inversion.DumpFlight(f, reason, profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Printf("invd: flight dump: %v", err)
		return
	}
	log.Printf("invd: flight recorder dumped to %s (%s)", path, reason)
}

func run(addr string, opts inversion.Options, devices, dflt, data string, idle, grace time.Duration, metricsAddr string, slowOp time.Duration, scrubOnStart bool, flightDump string) error {
	var (
		db      *inversion.DB
		fd      *inversion.FileDiskDevice
		err     error
		devDesc = devices
	)
	if data != "" {
		db, fd, err = inversion.OpenPersistent(data, opts)
		if err != nil {
			return err
		}
		devDesc = "persistent file " + data
		defer func() {
			if cerr := db.Close(); cerr != nil {
				log.Printf("invd: flush on shutdown: %v", cerr)
			}
			if cerr := fd.Close(); cerr != nil {
				log.Printf("invd: closing backing file: %v", cerr)
			}
		}()
	} else {
		sw := inversion.NewDeviceSwitch()
		clock := inversion.NewClock()
		for _, class := range strings.Split(devices, ",") {
			switch strings.TrimSpace(class) {
			case "disk":
				sw.Register(inversion.NewDiskDevice(clock))
			case "mem":
				sw.Register(inversion.NewMemDevice(nil, 0))
			case "jukebox":
				sw.Register(inversion.NewJukeboxDevice(clock))
			case "":
			default:
				return fmt.Errorf("unknown device class %q", class)
			}
		}
		if dflt != "" {
			if err := sw.SetDefault(dflt); err != nil {
				return err
			}
		}
		opts.DefaultClass = dflt
		db, err = inversion.Open(sw, opts)
		if err != nil {
			return err
		}
	}
	if scrubOnStart {
		rep, err := db.Scrub()
		if err != nil {
			return fmt.Errorf("scrub-on-start: %w", err)
		}
		log.Printf("invd: %s", rep.Summary())
		if !rep.OK() {
			for _, c := range rep.Media.Corrupt {
				log.Printf("invd: scrub: media: %s", c.String())
			}
			for _, p := range rep.Problems {
				log.Printf("invd: scrub: %s", p)
			}
			dumpFlight(flightDump, "scrub-on-start", db)
			return fmt.Errorf("scrub-on-start: database is not clean (%d media faults, %d problems)",
				len(rep.Media.Corrupt), len(rep.Problems))
		}
	}
	if err := inversion.RegisterStandardTypes(db.NewSession("invd")); err != nil {
		return err
	}
	srv := inversion.NewServerWith(db, inversion.ServerConfig{
		IdleTimeout: idle,
		GracePeriod: grace,
		SlowOp:      slowOp,
		PanicHook: func(op string, recovered any) {
			dumpFlight(flightDump, fmt.Sprintf("panic in %s", op), db)
		},
	})
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	log.Printf("invd: serving Inversion on %s (%s; idle-timeout %v, grace %v)",
		bound, devDesc, idle, grace)

	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		hs := &http.Server{Handler: inversion.NewMetricsHandler(db, srv)}
		go func() {
			if err := hs.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("invd: metrics server: %v", err)
			}
		}()
		defer hs.Close()
		log.Printf("invd: metrics on http://%s/metrics (pprof at /debug/pprof/, traces at /traces/recent and /traces/by-id, flight recorder at /debug/flight)",
			mln.Addr())
	}

	// SIGUSR1 dumps the flight recorder on demand — the live-incident
	// escape hatch when the HTTP endpoint is not configured.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			dumpFlight(flightDump, "SIGUSR1", db)
		}
	}()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("invd: shutting down (draining up to %v; send the signal again to force exit)", grace)
	go func() {
		<-sig
		log.Printf("invd: forced exit")
		os.Exit(1)
	}()
	return srv.Close()
}
