// Package cache provides the least-recently-used kernel-row cache used by
// the libsvm-enhanced baseline.
//
// The paper's proposed solver avoids a kernel cache completely (Section
// III-A2): a complete kernel matrix costs Theta(N^2) space and, for a fixed
// cache size, the hit probability falls as the dataset grows. libsvm,
// however, relies on its cache heavily, and the paper gives it "a compute
// node's entire memory" to set up the best execution scenario for the
// baseline. This package reproduces that component: a byte-budgeted LRU
// over full kernel rows, mirroring libsvm's Cache class.
package cache

import "container/list"

// RowCache is an LRU cache of kernel rows keyed by sample index.
// It is not safe for concurrent use; the baseline solver performs lookups
// from the coordinating goroutine only.
type RowCache struct {
	budget    int64 // max bytes of row payloads
	used      int64
	ll        *list.List // front = most recently used
	entries   map[int]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry struct {
	key int
	row []float64
}

// rowBytes is the accounted size of a cached row.
func rowBytes(row []float64) int64 { return int64(8 * len(row)) }

// New returns a RowCache with the given byte budget. A budget <= 0 disables
// caching (every Get misses and Put is a no-op).
func New(budgetBytes int64) *RowCache {
	return &RowCache{
		budget:  budgetBytes,
		ll:      list.New(),
		entries: make(map[int]*list.Element),
	}
}

// Get returns the cached row for key and marks it most recently used.
// The returned slice is owned by the cache and must not be mutated.
func (c *RowCache) Get(key int) ([]float64, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).row, true
}

// Put inserts a row, evicting least-recently-used rows as needed to stay
// within the byte budget. Rows larger than the whole budget are not cached.
// The cache takes ownership of the slice.
func (c *RowCache) Put(key int, row []float64) {
	if c.budget <= 0 || rowBytes(row) > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.used += rowBytes(row) - rowBytes(e.row)
		e.row = row
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry{key: key, row: row})
		c.entries[key] = el
		c.used += rowBytes(row)
	}
	for c.used > c.budget {
		c.evictOldest()
	}
}

func (c *RowCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.used -= rowBytes(e.row)
	c.evictions++
}

// Len returns the number of cached rows.
func (c *RowCache) Len() int { return c.ll.Len() }

// UsedBytes returns the bytes currently accounted to cached rows.
func (c *RowCache) UsedBytes() int64 { return c.used }

// Stats returns hit/miss/eviction counters.
func (c *RowCache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}
