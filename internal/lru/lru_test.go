package lru

import (
	"sync"
	"testing"
)

func keys(c *Cache[string, int]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ks []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*entry[string, int]).key)
	}
	return ks
}

func wantKeys(t *testing.T, c *Cache[string, int], want ...string) {
	t.Helper()
	got := keys(c)
	if len(got) != len(want) {
		t.Fatalf("recency order = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recency order = %v, want %v", got, want)
		}
	}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
}

func TestGetPromotes(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i, 1)
	}
	wantKeys(t, c, "c", "b", "a")
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = (%d, %v)", v, ok)
	}
	wantKeys(t, c, "a", "c", "b")
	if _, ok := c.Get("z"); ok {
		t.Fatal("Get of an absent key hit")
	}
	// The promoted entry outlives b, now the least recently used.
	if n := c.Put("d", 3, 1); n != 1 {
		t.Fatalf("Put(d) evicted %d, want 1", n)
	}
	wantKeys(t, c, "d", "a", "c")
}

func TestPutEvictsLeastRecentUntilFit(t *testing.T) {
	c := New[string, int](10)
	c.Put("a", 0, 3)
	c.Put("b", 1, 3)
	c.Put("c", 2, 3)
	c.Get("a")
	// 9 + 5 = 14 > 10: b goes first, then c; a was used after both.
	if n := c.Put("d", 3, 5); n != 2 {
		t.Fatalf("Put(d) evicted %d, want 2", n)
	}
	wantKeys(t, c, "d", "a")
	if c.cost != 8 {
		t.Fatalf("cost = %d, want 8", c.cost)
	}
}

func TestRePutUpdatesCostAndRecency(t *testing.T) {
	c := New[string, int](10)
	c.Put("a", 0, 2)
	c.Put("b", 1, 2)
	if n := c.Put("a", 10, 6); n != 0 {
		t.Fatalf("re-Put evicted %d", n)
	}
	wantKeys(t, c, "a", "b")
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) = %d after re-Put, want 10", v)
	}
	if c.cost != 8 {
		t.Fatalf("cost = %d, want 8", c.cost)
	}
	// Growing a's cost past the bound evicts b, not a.
	if n := c.Put("a", 11, 9); n != 1 {
		t.Fatalf("growing re-Put evicted %d, want 1", n)
	}
	wantKeys(t, c, "a")
}

func TestOversizedNotKept(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 0, 2)
	c.Put("b", 1, 2)
	if n := c.Put("big", 2, 5); n != 0 {
		t.Fatalf("oversized Put evicted %d, want 0", n)
	}
	wantKeys(t, c, "b", "a")
	// An oversized value under a held key drops the older value.
	if n := c.Put("a", 3, 5); n != 1 {
		t.Fatalf("oversized re-Put evicted %d, want 1", n)
	}
	wantKeys(t, c, "b")
	if c.cost != 2 {
		t.Fatalf("cost = %d, want 2", c.cost)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 40
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				c.Put(k, k, 1+k%3)
				_ = c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.cost > 16 || c.order.Len() != len(c.items) {
		t.Fatalf("cost %d, %d listed for %d mapped", c.cost, c.order.Len(), len(c.items))
	}
}

func TestGetAllocatesNothing(t *testing.T) {
	c := New[uint64, []byte](4)
	c.Put(1, []byte("body"), 1)
	if n := testing.AllocsPerRun(100, func() { c.Get(1) }); n != 0 {
		t.Fatalf("Get allocates %v times per call", n)
	}
}
