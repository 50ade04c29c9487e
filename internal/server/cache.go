package server

import (
	"bytes"

	"vrp/internal/lru"
)

// resultCache is a bounded LRU over serialized analysis responses, keyed
// by the vrange.HashBytes fingerprint of the submitted source. The value
// is the exact response body that was sent for the first request, so a
// hit is byte-identical to the miss that populated it — the cache can
// never change what a client observes, only how fast it arrives.
//
// The fingerprint only locates the entry; every hit is confirmed by
// comparing the stored source bytes against the request's (the same
// discipline the interner applies with BitEqual). A 64-bit fingerprint
// collision — two different programs, one digest — is therefore a
// counted miss, never another program's analysis. On a colliding put
// the newer program takes the slot: with no confirm-failure history to
// arbitrate, recency is the only signal available, and either choice is
// correct (the loser simply keeps re-analyzing).
//
// Only plain analyses are cached: explain and telemetry requests carry
// per-run payloads, so they bypass the cache entirely (counted by the
// bypass metric, not as misses).
type resultCache struct {
	entries *lru.Cache[uint64, cacheEntry]
}

type cacheEntry struct {
	src  []byte // the fingerprinted source; confirmed on every hit
	body []byte
}

// newResultCache returns a cache bounded to max entries; max <= 0
// disables caching (New then leaves the server's field nil).
func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{entries: lru.New[uint64, cacheEntry](max)}
}

// get returns the cached body for key after confirming the stored source
// equals src. collided reports a fingerprint match whose source differed
// — a miss the caller counts in vrpd_cache_collisions_total.
func (c *resultCache) get(key uint64, src []byte) (body []byte, ok, collided bool) {
	ent, found := c.entries.Get(key)
	if !found {
		return nil, false, false
	}
	if !bytes.Equal(ent.src, src) {
		return nil, false, true
	}
	return ent.body, true, false
}

// put stores body under (key, src), evicting the least recently used
// entry when full. Returns the number of entries evicted and whether the
// slot held a colliding different-source entry (which the new body
// replaces).
func (c *resultCache) put(key uint64, src, body []byte) (evicted int, collided bool) {
	if ent, found := c.entries.Get(key); found {
		if bytes.Equal(ent.src, src) {
			// Same source analyzed concurrently by two requests: keep the
			// first body (they are equal by determinism).
			return 0, false
		}
		collided = true
	}
	return c.entries.Put(key, cacheEntry{src: src, body: body}, 1), collided
}
