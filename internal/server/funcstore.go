package server

import (
	"vrp/internal/lru"
	corevrp "vrp/internal/vrp"
)

// funcStore is vrpd's implementation of the analysis driver's
// cross-request per-function result store (vrp.FuncStore): a bounded LRU
// of StoredFunc records keyed by (body fingerprint × interprocedural
// input fingerprint × config fingerprint). It is what makes the server
// incremental at function granularity — a request that edits one
// function of a program the store has seen re-analyzes only the dirty
// cone and splices everything else.
//
// Collision discipline matches the result cache and the compile cache:
// the fingerprint triple only locates an entry, and the entry is
// confirmed with FuncKey.SameKey (body bytes, callee-name binding,
// bit-equal input values) before it is served. A failed confirm is a
// counted miss, and a store under a colliding triple replaces the entry.
type funcStore struct {
	entries *lru.Cache[funcStoreFP, funcStoreEntry]

	m *serverMetrics
}

type funcStoreFP struct{ body, input, config uint64 }

type funcStoreEntry struct {
	key *corevrp.FuncKey
	sf  *corevrp.StoredFunc
}

// DefaultFuncStoreEntries bounds the store when Config.FuncStoreEntries
// is zero. Sized for a handful of warm multi-hundred-function programs:
// entries are per (function × distinct input snapshot), and one 56-kernel
// generated program populates ~120 of them.
const DefaultFuncStoreEntries = 4096

// newFuncStore returns a store bounded to max entries; max <= 0 disables
// the store (New then leaves the server's field nil).
func newFuncStore(max int, m *serverMetrics) *funcStore {
	if max <= 0 {
		return nil
	}
	return &funcStore{entries: lru.New[funcStoreFP, funcStoreEntry](max), m: m}
}

func fpOf(key *corevrp.FuncKey) funcStoreFP {
	return funcStoreFP{body: key.BodyFP, input: key.InputFP, config: key.ConfigFP}
}

// Lookup implements vrp.FuncStore: fingerprint probe, then full-key
// confirmation. A fingerprint match that fails confirmation counts as a
// collision and reports a miss.
func (s *funcStore) Lookup(key *corevrp.FuncKey) (*corevrp.StoredFunc, bool) {
	e, found := s.entries.Get(fpOf(key))
	if found && e.key.SameKey(key) {
		s.m.funcstoreHits.Inc()
		return e.sf, true
	}
	if found {
		s.m.funcstoreCollisions.Inc()
	}
	s.m.funcstoreMisses.Inc()
	return nil, false
}

// Store implements vrp.FuncStore. The driver hands over detached keys
// and records, so retaining them is safe. A same-key store keeps the
// first record: by determinism the two are bit-identical, and the first
// may already carry its published settled part. A colliding store
// (same fingerprints, different key) replaces the entry and is counted.
func (s *funcStore) Store(key *corevrp.FuncKey, sf *corevrp.StoredFunc) {
	fp := fpOf(key)
	e, found := s.entries.Get(fp)
	if found && e.key.SameKey(key) {
		return
	}
	if found {
		s.m.funcstoreCollisions.Inc()
	}
	if n := s.entries.Put(fp, funcStoreEntry{key: key, sf: sf}, 1); n > 0 {
		s.m.funcstoreEvictions.Add(int64(n))
	}
}
