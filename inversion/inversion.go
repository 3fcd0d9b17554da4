// Package inversion is the public API of the Inversion file system — a
// file system built on top of a database system, after Olson, "The
// Design and Implementation of the Inversion File System" (USENIX
// Winter 1993).
//
// Files live in database tables: every file's data is chunked into
// records in a uniquely named table with a B-tree on the chunk number,
// the namespace is the naming table, and attributes are the fileatt
// table. Because the storage manager never overwrites data and records
// every transaction's commit state and time, Inversion offers:
//
//   - transaction protection for file data and metadata (Begin /
//     Commit / Abort around any set of file operations),
//   - fine-grained time travel (OpenAsOf, StatAsOf, ReadDirAsOf —
//     the file system exactly as it was at any past instant),
//   - instant crash recovery (no fsck: uncommitted work is simply
//     invisible after restart),
//   - typed files with user-defined functions executed inside the data
//     manager, and
//   - ad hoc POSTQUEL queries over names, metadata, and file contents.
//
// # Quick start
//
//	sw := inversion.NewDeviceSwitch()
//	sw.Register(inversion.NewMemDevice(nil, 0))
//	db, err := inversion.Open(sw, inversion.Options{})
//	...
//	s := db.NewSession("mao")
//	s.Begin()
//	f, _ := s.Create("/hello", inversion.CreateOpts{})
//	f.Write([]byte("world"))
//	f.Close()
//	s.Commit()
//
// See the runnable programs under examples/ for transactions, time
// travel, typed satellite images, queries, and rules-driven migration.
package inversion

import (
	"io"
	"net/http"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/satgen"
	"repro/internal/txn"
	"repro/internal/typefuncs"
	"repro/internal/value"
	"repro/internal/wire"
)

// Core types.
type (
	// DB is one Inversion database (a mount point rooted at "/").
	DB = core.DB
	// Session is one client with at most one active transaction.
	Session = core.Session
	// File is an open file implementing io.Reader/Writer/Seeker/
	// ReaderAt/WriterAt/Closer.
	File = core.File
	// FileAttr is a row of the fileatt table.
	FileAttr = core.FileAttr
	// DirEntry is one directory listing row.
	DirEntry = core.DirEntry
	// CreateOpts selects a new file's type, device class, and flags.
	CreateOpts = core.CreateOpts
	// Options configures Open.
	Options = core.Options
	// Value is a dynamically typed query/function result.
	Value = value.V
	// FileFunc is a user-defined function run inside the data manager.
	FileFunc = core.FileFunc
	// FuncCtx is the evaluation context handed to a FileFunc.
	FuncCtx = core.FuncCtx
	// VacuumStats summarises a vacuum pass.
	VacuumStats = core.VacuumStats
	// TypeValidator is an integrity rule run when a file of its type is
	// closed after writing; a violation aborts the transaction.
	TypeValidator = core.TypeValidator
	// MediaReport summarises a CheckMedia scrub pass.
	MediaReport = core.MediaReport
	// ScrubReport is the result of DB.Scrub, the full integrity pass:
	// media, B-tree structure, namespace cross-links, chunk records,
	// and the transaction log.
	ScrubReport = core.ScrubReport
)

// Device layer types.
type (
	// DeviceSwitch routes relations to device managers.
	DeviceSwitch = device.Switch
	// DeviceManager is one entry in the device switch.
	DeviceManager = device.Manager
	// JukeboxParams configures the WORM jukebox simulator.
	JukeboxParams = device.JukeboxParams
	// Clock is the virtual clock cost models charge to.
	Clock = iosim.Clock
	// DiskParams is the mechanical model of a simulated disk.
	DiskParams = iosim.DiskParams
)

// Wire (client/server) types.
type (
	// Server serves the Inversion protocol over TCP.
	Server = wire.Server
	// ServerConfig tunes the server's connection lifecycle: idle-session
	// reaping, shutdown grace period, slow-op logging and a panic hook.
	ServerConfig = wire.ServerConfig
	// Client is the special library programs link to reach a server.
	Client = wire.Client
	// DialConfig configures a reconnecting client: dial/call timeouts
	// and reconnect backoff.
	DialConfig = wire.DialConfig
	// RemoteError is an error reported by a server over the wire.
	RemoteError = wire.RemoteError
	// FD is a remote file descriptor.
	FD = wire.FD
)

// Wire lifecycle defaults.
const (
	// DefaultIdleTimeout is the server's default idle-transaction reap
	// threshold.
	DefaultIdleTimeout = wire.DefaultIdleTimeout
	// DefaultGracePeriod is the server's default shutdown drain budget.
	DefaultGracePeriod = wire.DefaultGracePeriod
)

// Observability types.
type (
	// MetricsRegistry is the per-database registry of counters, gauges,
	// and latency histograms every storage layer records into; reach it
	// via DB.Obs().
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry (what the
	// statsv2 wire op carries and Client.StatsV2 returns).
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot is one latency distribution in a snapshot, with
	// Quantile for p50/p95/p99 extraction.
	HistogramSnapshot = obs.HistogramSnapshot
	// SpanData is one finished request trace: per-layer latency
	// attribution plus txn/relation annotations.
	SpanData = obs.SpanData
	// TraceRing keeps the slowest recent request traces; reach a
	// server's via Server.Traces().
	TraceRing = obs.TraceRing
	// WaitProfile is the counted wait-event profile (where goroutines
	// block, by event, op, and relation); reach a database's via
	// DB.WaitProfile() or a served one's via Client.WaitProfile().
	WaitProfile = obs.WaitProfile
	// WaitProfileRow is one (class, event, op, relation) wait bucket.
	WaitProfileRow = obs.WaitProfileRow
	// FlightBundle is a dumped flight-recorder snapshot: the recent
	// span/lifecycle timeline plus an optional wait profile.
	FlightBundle = obs.FlightBundle
	// HistorySample is one recorded metrics-history point (counter
	// delta, gauge point, or histogram quantile).
	HistorySample = obs.HistorySample
	// HistoryDiffer converts successive registry snapshots into
	// per-tick samples — the recorder's diffing layer, reusable by
	// monitors (inv top) that want the same delta view of live data.
	HistoryDiffer = obs.HistoryDiffer
)

// NewHistoryDiffer returns a differ with no previous tick.
func NewHistoryDiffer() *HistoryDiffer { return obs.NewHistoryDiffer() }

// ErrHistoryDisabled is returned by metrics-history APIs when the
// database was opened without Options.MetricsHistory.
var ErrHistoryDisabled = core.ErrHistoryDisabled

// Names of the stored metrics-history relations (queryable with the
// ordinary retrieve path, including asof, once history is enabled).
const (
	HistoryRelName        = core.HistoryRelName
	HistorySamplesRelName = core.HistorySamplesRelName
)

// DumpFlight writes the process's flight-recorder bundle (version,
// reason, recent timeline, optional wait profile) as indented JSON.
func DumpFlight(w io.Writer, reason string, profile *WaitProfile) error {
	return obs.Flight().WriteBundle(w, reason, profile)
}

// ParseFlightBundle decodes a bundle produced by DumpFlight (or the
// daemon's /debug/flight endpoint and crash dumps).
func ParseFlightBundle(b []byte) (FlightBundle, error) {
	return obs.ParseFlightBundle(b)
}

// FormatMetrics renders a snapshot for terminals: stable sorted
// counters and gauges, then one line per histogram with count, mean,
// and p50/p95/p99 (per-shard series merged).
func FormatMetrics(s MetricsSnapshot) string { return obs.FormatText(s) }

// NewMetricsHandler returns the operational HTTP endpoint for a served
// database: Prometheus text at /metrics, Go profiles under
// /debug/pprof/, and the slowest recent request traces as JSON at
// /traces/recent. srv may be nil (no trace ring, /traces/recent 404s).
func NewMetricsHandler(db *DB, srv *Server) http.Handler {
	var ring *obs.TraceRing
	if srv != nil {
		ring = srv.Traces()
	}
	return obs.Handler(db.Obs(), ring)
}

// Query and rules types.
type (
	// QueryEngine executes POSTQUEL-subset statements.
	QueryEngine = query.Engine
	// QueryResult is a query result set.
	QueryResult = query.Result
	// RulesEngine applies migration rules.
	RulesEngine = rules.Engine
	// Rule is one migration policy.
	Rule = rules.Rule
	// Migration records one rules-driven file move.
	Migration = rules.Migration
)

// Constants.
const (
	// ChunkSize is the number of file bytes per chunk record ("chunks
	// slightly smaller than 8 KBytes").
	ChunkSize = core.ChunkSize
	// MaxFileSize is 17.6 TB, the paper's file size limit.
	MaxFileSize = core.MaxFileSize
	// FlagCompressed stores a file's chunks compressed with per-chunk
	// size indices for random access.
	FlagCompressed = core.FlagCompressed
	// FlagNoHistory lets the vacuum cleaner discard a file's old
	// versions instead of archiving them.
	FlagNoHistory = core.FlagNoHistory
	// TypeDirectory is the type of directories.
	TypeDirectory = core.TypeDirectory
)

// Errors.
var (
	ErrNotExist     = core.ErrNotExist
	ErrExist        = core.ErrExist
	ErrIsDirectory  = core.ErrIsDirectory
	ErrNotDirectory = core.ErrNotDirectory
	ErrNotEmpty     = core.ErrNotEmpty
	ErrReadOnly     = core.ErrReadOnly
	ErrHistoricalWr = core.ErrHistoricalWr
	ErrClosed       = core.ErrClosed
	ErrNoFunction   = core.ErrNoFunction
	ErrTypeMismatch = core.ErrTypeMismatch
	// ErrShardedVolume is returned by Open for a volume whose namespace
	// was bootstrapped hash-partitioned across several relation sets,
	// a layout this version does not read.
	ErrShardedVolume = core.ErrShardedVolume
	// ErrDeadlock is returned to one participant of a lock cycle; its
	// transaction should abort and may retry. A server surfaces it over
	// the wire so errors.Is works on remote clients too.
	ErrDeadlock = txn.ErrDeadlock
	// ErrReaped is returned by Commit/Abort after the server's idle
	// reaper aborted the session's transaction; re-run the transaction.
	ErrReaped = core.ErrReaped
	// ErrConnLost is wrapped by client calls that lost the server
	// connection and could not safely retry; if a transaction was open
	// it has been aborted server-side and should be re-run.
	ErrConnLost = wire.ErrConnLost
	// ErrReplyTooLarge is returned by a client call whose reply would
	// exceed the protocol's message size limit; the connection stays
	// usable.
	ErrReplyTooLarge = wire.ErrReplyTooLarge
)

// Open opens (or bootstraps) a database over a device switch.
func Open(sw *DeviceSwitch, opts Options) (*DB, error) { return core.Open(sw, opts) }

// OpenMemory opens a fresh all-in-memory database, the quickest way to
// try the system.
func OpenMemory(opts Options) (*DB, error) {
	sw := NewDeviceSwitch()
	sw.Register(NewMemDevice(nil, 0))
	return core.Open(sw, opts)
}

// NewDeviceSwitch returns an empty device manager switch.
func NewDeviceSwitch() *DeviceSwitch { return device.NewSwitch() }

// NewClock returns a virtual clock for simulated device timing.
func NewClock() *Clock { return iosim.NewClock() }

// NewMemDevice returns a non-volatile RAM device manager. clock may be
// nil to disable cost accounting.
func NewMemDevice(clock *Clock, latency time.Duration) DeviceManager {
	return device.NewMem(clock, latency)
}

// NewDiskDevice returns a magnetic disk manager with RZ58-like
// mechanics charged to clock (nil disables accounting).
func NewDiskDevice(clock *Clock) DeviceManager {
	return device.NewDisk(iosim.NewDisk(iosim.RZ58(), clock), device.DefaultExtentPages)
}

// NewJukeboxDevice returns a Sony WORM optical jukebox manager with a
// magnetic-disk staging cache.
func NewJukeboxDevice(clock *Clock) DeviceManager {
	return device.NewJukebox(device.DefaultJukebox(), clock)
}

// FileDiskDevice is a disk manager backed by a real file on the host,
// making the database durable across process restarts.
type FileDiskDevice = device.FileDisk

// OpenFileDisk opens (or creates) a persistent disk at path. clock may
// be nil; with a clock the persistent disk still charges RZ58-style
// virtual time.
func OpenFileDisk(path string, clock *Clock) (*FileDiskDevice, error) {
	var model *iosim.Disk
	if clock != nil {
		model = iosim.NewDisk(iosim.RZ58(), clock)
	}
	return device.OpenFileDisk(path, model, device.DefaultExtentPages)
}

// OpenPersistent opens (or creates) a durable database whose relations,
// transaction logs, and catalog all live in one backing file at path.
// Close the DB (flushing it) and then the returned disk when done.
func OpenPersistent(path string, opts Options) (*DB, *FileDiskDevice, error) {
	fd, err := OpenFileDisk(path, nil)
	if err != nil {
		return nil, nil, err
	}
	sw := NewDeviceSwitch()
	sw.Register(fd)
	opts.LogClass = "disk"
	if opts.DefaultClass == "" {
		opts.DefaultClass = "disk"
	}
	db, err := Open(sw, opts)
	if err != nil {
		fd.Close()
		return nil, nil, err
	}
	return db, fd, nil
}

// NewQueryEngine returns a POSTQUEL engine over db.
func NewQueryEngine(db *DB) *QueryEngine { return query.New(db) }

// NewRulesEngine returns a migration rules engine over db.
func NewRulesEngine(db *DB) *RulesEngine { return rules.New(db) }

// NewServer returns a TCP server for db; call Listen to start it.
func NewServer(db *DB) *Server { return wire.NewServer(db) }

// NewServerWith returns a TCP server for db with explicit lifecycle
// settings (idle-transaction reaping, shutdown grace period).
func NewServerWith(db *DB, cfg ServerConfig) *Server { return wire.NewServerWith(db, cfg) }

// Dial connects to a server as the given owner. The client does not
// reconnect; use DialWithConfig for one that does.
func Dial(addr, owner string) (*Client, error) { return wire.Dial(addr, owner) }

// DialWithConfig connects with explicit timeouts and automatic
// reconnection (exponential backoff with jitter). Only operations that
// are safe to repeat are retried; see the wire package documentation.
func DialWithConfig(cfg DialConfig) (*Client, error) { return wire.DialWithConfig(cfg) }

// RegisterStandardTypes defines the paper's Table 2 file types and
// classification functions (ASCII/troff documents, CZCS and Thematic
// Mapper satellite images with linecount, keywords, snow, …).
func RegisterStandardTypes(s *Session) error { return typefuncs.RegisterAll(s) }

// RegisterStandardValidators installs integrity rules for the image
// types: a transaction that tries to commit a structurally invalid
// satellite image is aborted ("Consistency Guarantees"). Opt-in,
// because it changes write semantics.
func RegisterStandardValidators(s *Session) { typefuncs.RegisterValidators(s) }

// Standard type names installed by RegisterStandardTypes.
const (
	TypeASCII = typefuncs.TypeASCII
	TypeTroff = typefuncs.TypeTroff
	TypeCZCS  = typefuncs.TypeCZCS
	TypeTM    = typefuncs.TypeTM
)

// Satellite image support (the synthetic Thematic Mapper scenes that
// stand in for the Sequoia 2000 data).
type (
	// SatImage is a decoded multi-band satellite scene.
	SatImage = satgen.Image
	// SatParams configures synthetic scene generation.
	SatParams = satgen.Params
)

// GenerateScene builds a synthetic satellite scene with a planted snow
// fraction.
func GenerateScene(p SatParams) *SatImage { return satgen.Generate(p) }

// DecodeScene parses an encoded satellite scene.
func DecodeScene(data []byte) (*SatImage, bool) { return satgen.Decode(data) }

// GetPixel reads one pixel of a stored scene.
func GetPixel(s *Session, path string, band, x, y int) (byte, error) {
	return typefuncs.GetPixel(s, path, band, x, y)
}

// GetBand reads one band of a stored scene.
func GetBand(s *Session, path string, band int) ([]byte, error) {
	return typefuncs.GetBand(s, path, band)
}

// FuncInfo declares a function over a file type.
type FuncInfo = catalog.FuncInfo

// Value constructors for user-defined functions.

// IntValue returns an integer Value.
func IntValue(i int64) Value { return value.Int(i) }

// FloatValue returns a floating-point Value.
func FloatValue(f float64) Value { return value.Float(f) }

// StrValue returns a string Value.
func StrValue(s string) Value { return value.Str(s) }

// BoolValue returns a boolean Value.
func BoolValue(b bool) Value { return value.Bool(b) }

// ListValue returns a list-of-strings Value.
func ListValue(l []string) Value { return value.List(l) }

// NullValue returns the null Value.
func NullValue() Value { return value.Null() }
