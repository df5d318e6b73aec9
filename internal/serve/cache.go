package serve

import (
	"container/list"
	"fmt"
	"sync"

	"roadtrojan/internal/eval"
)

// lruCache is the evaluation result cache, bounded two ways: by entry count
// (the legacy CacheSize knob) and by estimated payload bytes, so a run of
// large batched results cannot blow memory no matter how small their count.
// It is safe for concurrent use; a non-positive entry capacity disables
// caching entirely.
type lruCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	curBytes   int64
	ll         *list.List
	items      map[string]*list.Element
}

type lruEntry struct {
	key  string
	val  any
	size int64
}

func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes key with the given payload size, evicting least
// recently used entries until both the entry and byte budgets hold. A value
// whose size alone exceeds the byte budget is not cached at all — one
// oversized result must not wipe the whole cache.
func (c *lruCache) put(key string, val any, size int64) {
	if c.maxEntries <= 0 {
		return
	}
	if size < 0 {
		size = 0
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		c.curBytes += size - e.size
		e.val, e.size = val, size
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, size: size})
		c.curBytes += size
	}
	for c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.curBytes > c.maxBytes) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		delete(c.items, e.key)
		c.curBytes -= e.size
	}
}

// check verifies the cache's structural invariants: the list and the map
// hold the same entries, curBytes is the sum of the entry sizes, and both
// budgets hold. It returns the first violation found.
//
//rtlint:ignore deadcode invariant checker: tests run it after every step; the hot path has no hook
func (c *lruCache) check() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() != len(c.items) {
		return fmt.Errorf("serve: lru list holds %d entries, map %d", c.ll.Len(), len(c.items))
	}
	inList := make(map[*list.Element]bool, c.ll.Len())
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		inList[el] = true
		sum += el.Value.(*lruEntry).size
	}
	for key, el := range c.items {
		if !inList[el] || el.Value.(*lruEntry).key != key {
			return fmt.Errorf("serve: lru map entry %q is not in the list", key)
		}
	}
	if sum != c.curBytes {
		return fmt.Errorf("serve: lru curBytes %d, entry sizes sum to %d", c.curBytes, sum)
	}
	if c.ll.Len() > max(c.maxEntries, 0) {
		return fmt.Errorf("serve: lru holds %d entries over the budget of %d", c.ll.Len(), c.maxEntries)
	}
	if c.maxBytes > 0 && c.curBytes > c.maxBytes {
		return fmt.Errorf("serve: lru holds %d bytes over the budget of %d", c.curBytes, c.maxBytes)
	}
	return nil
}

// len reports the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bytes reports the estimated payload bytes currently held (the
// serve_cache_bytes gauge).
func (c *lruCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// detailBytes estimates the in-memory payload of one cached evaluation
// result: the Detail struct plus each run's frame slice. The estimate only
// needs to be proportional and stable — the byte budget is a memory guard,
// not an accounting ledger.
func detailBytes(d eval.Detail) int64 {
	const (
		base     = 128 // Detail struct + map/list bookkeeping
		perRun   = 32  // slice header + growth slack
		perFrame = 40  // metrics.FrameResult
	)
	n := int64(base)
	for _, run := range d.Runs {
		n += perRun + perFrame*int64(len(run))
	}
	return n
}
