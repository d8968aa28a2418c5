package sortnets

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded least-recently-used cache with a fixed entry
// capacity. A Session keeps two: the verdict cache (immutable
// *Verdict / conveniences' typed results, shared by the in-process
// and HTTP paths) and the resolve memo (network text → canonical
// digest and line count).
type lru[V any] struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	entries   map[string]*list.Element
	evictions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached value and refreshes its recency.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts or refreshes key, evicting the least recently used
// entry when the cache is full.
func (c *lru[V]) Add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
}

// Len returns the current entry count.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evictions returns the lifetime eviction count.
func (c *lru[V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Cap returns the configured capacity.
func (c *lru[V]) Cap() int { return c.capacity }
