// Package lru is a cost-bounded least-recently-used map that is safe for
// concurrent use. vrpd keeps its cross-request state in it: response
// bodies, per-function analysis records and per-function compiled IR.
// Each of those caches finds an entry by a key that only locates it (a
// fingerprint or a function name) and confirms the entry against its
// full key before serving it; the cache itself knows nothing of that.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values whose costs sum to at most the bound it was
// made with. Create with New.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	cost  int                 // summed over the entries held
	items map[K]*list.Element // values are *entry[K, V]
	order list.List           // front = most recently used
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int
}

// New returns an empty cache whose entries' costs sum to at most max.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, items: make(map[K]*list.Element)}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k at the given cost, replacing the value k held,
// marks it most recently used, and evicts least recently used entries
// until the costs fit the bound. It returns the number of entries
// evicted. A value whose cost alone exceeds the bound is not kept (and
// the value k held is dropped): keeping it would evict everything else.
func (c *Cache[K, V]) Put(k K, v V, cost int) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	switch {
	case cost > c.max:
		if ok {
			c.remove(el)
			evicted++
		}
		return evicted
	case ok:
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.val, e.cost = v, cost
		c.order.MoveToFront(el)
	default:
		c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v, cost: cost})
		c.cost += cost
	}
	for c.cost > c.max {
		c.remove(c.order.Back())
		evicted++
	}
	return evicted
}

func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.cost -= e.cost
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
