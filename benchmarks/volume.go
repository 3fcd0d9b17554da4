package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/typefuncs"
	"repro/internal/wire"
)

// poolPages is invd's shipped -buffers default: 300 pages = 2.4 MB.
// Workload data sizes are stated relative to it.
const poolPages = 300

// volConfig says how a volume is opened. The end-to-end runs use
// shippedConfig; the traced passes switch single things off.
type volConfig struct {
	clients      int           // wire.Client connections to dial; 0 = do not serve
	traced       bool          // decorate the device and record spans
	bgWriter     bool          // invd -bg-writer
	waitSampling time.Duration // invd -wait-sampling
}

// shippedConfig is `invd -data FILE` with every flag at its default,
// driven by n client connections.
func shippedConfig(n int) volConfig {
	return volConfig{clients: n, bgWriter: true, waitSampling: obs.DefaultWaitSamplingInterval}
}

// volume is one fresh Inversion database in its own directory: a
// FileDisk backing file with real fsync, opened the way invd opens
// -data, optionally served on loopback.
type volume struct {
	dir   string
	path  string
	disk  *device.FileDisk
	dev   *timedDevice // nil unless traced
	tr    *tracer      // nil unless traced
	db    *core.DB
	srv   *wire.Server
	wires []*wire.Client
	conns []fsConn // what the workload drives: wire conns, or one local conn
}

// openVolume bootstraps a volume in a fresh directory under baseDir.
func openVolume(baseDir string, cfg volConfig) (v *volume, err error) {
	dir, err := os.MkdirTemp(baseDir, "invbench-vol-")
	if err != nil {
		return nil, err
	}
	v = &volume{dir: dir, path: filepath.Join(dir, "vol.inv")}
	defer func() {
		if err != nil {
			err = errors.Join(err, v.close())
			v = nil
		}
	}()
	if v.disk, err = device.OpenFileDisk(v.path, nil, device.DefaultExtentPages); err != nil {
		return v, err
	}
	var mgr device.Manager = v.disk
	if cfg.traced {
		v.tr = newTracer()
		v.dev = &timedDevice{Manager: v.disk, tr: v.tr}
		mgr = v.dev
	}
	sw := device.NewSwitch()
	sw.Register(mgr)
	// Commit window 0, shards 0 and metrics history off are the zero
	// values: every commit forces data and log with a real fsync.
	v.db, err = core.Open(sw, core.Options{
		Buffers:          poolPages,
		LogClass:         "disk",
		DefaultClass:     "disk",
		BackgroundWriter: cfg.bgWriter,
		CheckpointEvery:  time.Minute,
		WaitSampling:     cfg.waitSampling,
	})
	if err != nil {
		return v, err
	}
	if err = typefuncs.RegisterAll(v.db.NewSession("invd")); err != nil {
		return v, err
	}
	if cfg.clients == 0 {
		v.conns = []fsConn{newLocalConn(v.db, "bench")}
		return v, nil
	}
	v.srv = wire.NewServerWith(v.db, wire.ServerConfig{GracePeriod: 2 * time.Second})
	addr, err := v.srv.Listen("127.0.0.1:0")
	if err != nil {
		return v, err
	}
	for i := 0; i < cfg.clients; i++ {
		c, err := wire.Dial(addr, fmt.Sprintf("bench%d", i))
		if err != nil {
			return v, err
		}
		v.wires = append(v.wires, c)
		v.conns = append(v.conns, wireConn{c})
	}
	return v, nil
}

// flush is the last step of set-up: everything written so far is on
// the backing file and synced.
func (v *volume) flush() error {
	if err := v.db.Pool().FlushAll(); err != nil {
		return err
	}
	return v.db.Switch().Sync()
}

// fileBytes is the backing file's size.
func (v *volume) fileBytes() (int64, error) {
	st, err := os.Stat(v.path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// close stops clients, server and database in that order (each bounded:
// Client.Close never waits, Server.Close drains for at most twice the
// grace period) and removes the directory. Safe on a half-opened volume.
func (v *volume) close() error {
	var errs []error
	for _, c := range v.wires {
		errs = append(errs, c.Close())
	}
	if v.srv != nil {
		errs = append(errs, v.srv.Close())
	}
	if v.db != nil {
		errs = append(errs, v.db.Close())
	}
	if v.disk != nil {
		errs = append(errs, v.disk.Close())
	}
	errs = append(errs, os.RemoveAll(v.dir))
	return errors.Join(errs...)
}
