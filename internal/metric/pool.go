package metric

import (
	"container/list"
	"sort"
	"strings"
	"sync"
)

// CachePool is a keyed pool of shared DistCaches with LRU eviction under a
// byte budget. The long-running server keeps one entry per dataset shard so
// every job that queries the same data reuses the same warm cells; when
// datasets churn (appends bump versions, old shardings go cold) the least
// recently used caches are dropped and their memory reclaimed.
//
// Get is safe for concurrent use and builds each key exactly once even when
// many jobs race for it: losers of the race wait for the winner's build and
// share its cache. Eviction only removes the pool's reference — jobs still
// holding an evicted cache keep using it safely; it simply stops being
// shared with future jobs.
type CachePool struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*poolEntry
	lru      *list.List // front = most recently used; values are *poolEntry

	hits, builds, evictions int64
}

type poolEntry struct {
	key       string
	elem      *list.Element
	ready     chan struct{} // closed once dc is set
	dc        *DistCache
	bytes     int64
	accounted bool // bytes added to the pool budget (guarded by pool mu)
}

// NewCachePool creates a pool bounded by maxBytes of cache cells
// (<= 0 means a 256 MiB default).
func NewCachePool(maxBytes int64) *CachePool {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &CachePool{
		maxBytes: maxBytes,
		entries:  make(map[string]*poolEntry),
		lru:      list.New(),
	}
}

// Get returns the cache stored under key, building it with build() on first
// use. A cache larger than the whole pool budget is returned unpooled (it
// would evict everything and then be evicted itself). build must not return
// nil.
func (p *CachePool) Get(key string, build func() *DistCache) *DistCache {
	p.mu.Lock()
	if e, ok := p.entries[key]; ok {
		p.lru.MoveToFront(e.elem)
		p.hits++
		p.mu.Unlock()
		<-e.ready
		return e.dc
	}
	e := &poolEntry{key: key, ready: make(chan struct{})}
	e.elem = p.lru.PushFront(e)
	p.entries[key] = e
	p.builds++
	p.mu.Unlock()

	dc := build()
	e.dc = dc
	e.bytes = dc.Bytes()
	close(e.ready)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries[key] != e {
		// Invalidated (and possibly replaced) while building: the entry was
		// never accounted, so there is nothing to undo. Concurrent waiters
		// that already picked it up still share this one build.
		return dc
	}
	if e.bytes > p.maxBytes {
		// Too large to share: withdraw the entry.
		p.lru.Remove(e.elem)
		delete(p.entries, key)
		return dc
	}
	p.bytes += e.bytes
	e.accounted = true
	p.evictLocked(e)
	return dc
}

// evictLocked drops least-recently-used entries until the budget holds,
// never evicting keep (the entry just inserted) or entries whose build is
// still in flight (they carry no accounted bytes to reclaim yet — and
// their dc pointer may still be nil, so touching them here would race the
// builder; the accounted flag is the guard, checked before dc is ever
// read). Eviction only drops the pool's reference: a background Prefill
// still filling an evicted cache keeps running safely on its own pointer
// and simply stops being shared with future jobs (warmups probe Has to cut
// that work short).
func (p *CachePool) evictLocked(keep *poolEntry) {
	for p.bytes > p.maxBytes {
		var victim *poolEntry
		for el := p.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*poolEntry); e != keep && e.accounted && e.dc != nil {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		p.lru.Remove(victim.elem)
		delete(p.entries, victim.key)
		p.bytes -= victim.bytes
		p.evictions++
	}
}

// Has reports whether key is currently pooled (including entries whose
// build is still in flight). Background warmups probe it between fill rows
// so a prefill racing an LRU eviction or dataset delete stops burning CPU
// on a cache no future job will ever see.
func (p *CachePool) Has(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[key]
	return ok
}

// Invalidate drops the entry stored under key, if any. Jobs still holding
// the cache keep using it; future Gets rebuild.
func (p *CachePool) Invalidate(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.invalidateLocked(key)
}

// InvalidatePrefix drops every entry whose key starts with prefix — the
// registry reclaims a deleted dataset's shard caches this way (its keys all
// share the "name@v" prefix) instead of leaving them to age out by LRU.
func (p *CachePool) InvalidatePrefix(prefix string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key := range p.entries {
		if strings.HasPrefix(key, prefix) {
			p.invalidateLocked(key)
		}
	}
}

func (p *CachePool) invalidateLocked(key string) {
	if e, ok := p.entries[key]; ok {
		p.lru.Remove(e.elem)
		delete(p.entries, key)
		if e.accounted {
			p.bytes -= e.bytes
		}
		// Otherwise the build is still in flight; the builder will find the
		// entry gone and skip accounting.
	}
}

// PoolEntry is one pooled cache in an Entries snapshot.
type PoolEntry struct {
	Key string
	DC  *DistCache
}

// Entries snapshots the pooled caches whose builds have completed, in key
// order (tests assert which keys a reclaim left behind). In-flight builds
// are skipped: their dc field is published by the ready channel, not the
// pool lock.
func (p *CachePool) Entries() []PoolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PoolEntry, 0, len(p.entries))
	for key, e := range p.entries {
		select {
		case <-e.ready:
			out = append(out, PoolEntry{Key: key, DC: e.dc})
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// PoolStats is a point-in-time snapshot of pool behavior.
type PoolStats struct {
	Entries   int   // caches currently pooled
	Bytes     int64 // cell bytes currently pooled
	MaxBytes  int64
	Hits      int64 // Gets served by an existing entry
	Builds    int64 // Gets that built a fresh cache
	Evictions int64
}

// Stats returns a snapshot of the pool counters.
func (p *CachePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Entries:   len(p.entries),
		Bytes:     p.bytes,
		MaxBytes:  p.maxBytes,
		Hits:      p.hits,
		Builds:    p.builds,
		Evictions: p.evictions,
	}
}
