// Package sysview holds the relations a retrieve's from clause can
// name: POSTQUEL-queryable system catalogs. The paper's thesis is that
// file-system state becomes more useful when it lives in ordinary
// database tables; this package finishes the thought for the system's
// own internals — the lock table, the live-transaction set, the buffer
// shards, the vacuum history, and the latency histograms are all just
// more relations.
//
// Most of them are live: a scan materializes rows from
// short-critical-section snapshot accessors (txn.Manager.ActiveTxns,
// LockManager.DumpLocks, buffer.Pool.ShardStats, ...), so the rows
// describe the instant the query ran, not any transaction snapshot, and
// time travel (asof) over them is an error by construction — there is
// no history to read. The metrics-history relations core registers are
// real MVCC heaps and are marked Versioned; both kinds are one type,
// Rel, so the query engine has one thing to scan.
//
// The package sits below internal/core (which registers the relations)
// and beside internal/query (which resolves range variables against a
// Registry), so it depends only on the storage layers it reports on.
// Catalogs over core's own state (inv_relations, inv_vacuum,
// inv_history_meta and the history heaps) are Rels that core builds
// itself.
package sysview

import (
	"sort"
	"sync"

	"repro/internal/txn"
	"repro/internal/value"
)

// Column documents one column of a relation.
type Column struct {
	Name string
	Kind value.Kind
	Doc  string
}

// KindName renders a value kind for the inv_columns catalog and \d.
func KindName(k value.Kind) string {
	switch k {
	case value.KindInt:
		return "int"
	case value.KindFloat:
		return "float"
	case value.KindString:
		return "string"
	case value.KindBool:
		return "bool"
	case value.KindList:
		return "list"
	default:
		return "null"
	}
}

// Rel is one relation a retrieve's from clause can name: a live system
// catalog materialized from engine state, or a stored system relation
// (the metrics-history heaps). Scan feeds the rows visible to snap to
// emit, one value per column in Columns order. The row is borrowed: it
// is valid only until emit returns, so a Scan may reuse one slice for
// every row and a consumer copies what it keeps. A live catalog ignores
// snap — its rows describe the instant of the scan — and leaves
// Versioned false, which makes asof over it an error. Scan must be safe
// for concurrent use and must never read the database's virtual
// (simulated) clock — ages and timestamps come from wall time only.
type Rel struct {
	Name      string
	Doc       string
	Columns   []Column
	Versioned bool // rows are MVCC versions: asof selects a past state
	Scan      func(snap *txn.Snapshot, emit func(row []value.V) error) error
}

// Registry maps names to relations. Registration happens at wiring time
// (core.Open, wire.NewServer) and when the history relations are first
// catalogued; lookups are read-locked so queries never contend with each
// other.
type Registry struct {
	mu   sync.RWMutex
	rels map[string]*Rel
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{rels: make(map[string]*Rel)}
}

// Register adds (or replaces) a relation under its own name.
func (r *Registry) Register(v *Rel) {
	if r == nil || v == nil {
		return
	}
	r.mu.Lock()
	r.rels[v.Name] = v
	r.mu.Unlock()
}

// Lookup resolves a relation by name. A nil registry resolves nothing.
func (r *Registry) Lookup(name string) (*Rel, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	v, ok := r.rels[name]
	r.mu.RUnlock()
	return v, ok
}

// Names reports the registered relation names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]string, 0, len(r.rels))
	for n := range r.rels {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// All reports the registered relations in name order.
func (r *Registry) All() []*Rel {
	if r == nil {
		return nil
	}
	names := r.Names()
	out := make([]*Rel, 0, len(names))
	r.mu.RLock()
	for _, n := range names {
		out = append(out, r.rels[n])
	}
	r.mu.RUnlock()
	return out
}
