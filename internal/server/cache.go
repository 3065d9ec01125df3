package server

import (
	"container/list"
	"sync"
)

// resultCache is a fixed-capacity LRU of run records, each held under
// its raw and its canonical key (see cacheKey in server.go). A hit
// renders the requested shape from the record, so repeated identical
// requests are served without touching the admission queue or an
// engine. A capacity <= 0 disables caching.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	rec *runRecord
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the record cached under key, promoting the entry to most
// recently used.
func (c *resultCache) get(key string) (*runRecord, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rec, true
}

// put inserts or refreshes key, evicting the least recently used entry
// past capacity.
func (c *resultCache) put(key string, rec *runRecord) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).rec = rec
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, rec: rec})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
