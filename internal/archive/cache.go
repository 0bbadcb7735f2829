package archive

import (
	"container/list"
	"fmt"
	"sync"
)

// DefaultCacheBytes bounds a node's blob cache when NewCache is used
// directly: enough for hundreds of real task archives, small enough that
// a long-lived TaskManager fed a fresh archive digest per CI run does not
// grow without bound.
const DefaultCacheBytes = 256 << 20

// maxFreeShare is the share of a cache's byte budget its free list may hold:
// a quarter. The list only has to cover the buffers in flight between one
// job letting go and the next one asking — a working set, not a history —
// and whatever it holds is budget the LRU cannot use for content, so it gets
// the smaller part. It is not a setting: a node whose jobs move more than a
// quarter of its cache at once allocates the excess, as every node did
// before there was a list.
const maxFreeShare = 4

// entry is one cached blob: the content-addressed bytes, plus the parsed
// archive when the blob is a task archive. Shuffle outputs from the data
// plane cache with arch == nil; both kinds share the LRU and the byte
// budget, so hot shuffle traffic can evict cold archives and vice versa.
type entry struct {
	digest string
	blob   *Blob // the entry is one of its holders
	arch   *Archive
	// owners are the jobs whose tasks put or pulled these bytes through the
	// data plane. When the last of them is released the entry leaves —
	// unless it is kept: stored by Put or PutBlob, it belongs to no job and
	// leaves only by LRU.
	owners []string
	kept   bool
}

// Cache is a content-addressed blob store keyed by digest — the
// TaskManager's node-local cache shared across tasks and jobs, holding both
// task archives and data-plane shuffle outputs. Two tasks (of the same job
// or of different jobs) referencing the same digest hit the same entry, so
// a node pays for each distinct blob at most once no matter how many tasks
// use it. The cache holds at most maxBytes of blob data, evicting the
// least-recently-used digests; an evicted digest is simply re-fetched on
// its next reference.
//
// Data-plane entries additionally belong to the jobs that put or pulled
// them (Publish, Acquire) and leave with the last of those jobs
// (ReleaseJob); the LRU is their backstop, for the release that never
// arrives. Their buffers are counted (Blob) and, at count zero, kept on a
// free list inside the same byte budget for the next NewBlob.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	byDigest map[string]*list.Element
	lru      *list.List // front = most recently used; values are *entry
	byJob    map[string]map[*entry]struct{}
	// free holds released buffers, oldest first, each len == cap == its
	// class; freeBytes is their total. curBytes + freeBytes <= maxBytes
	// (but for one oversized entry), and free buffers go before any entry
	// does.
	free      [][]byte
	freeBytes int64
	live      int64 // counted blobs handed out by NewBlob and not yet at zero
	puts      int64
	hits      int64
	misses    int64
}

// NewCache returns an empty blob cache bounded by DefaultCacheBytes.
func NewCache() *Cache { return NewCacheSize(DefaultCacheBytes) }

// NewCacheSize returns an empty blob cache bounded by maxBytes
// (<= 0 selects DefaultCacheBytes).
func NewCacheSize(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		byDigest: make(map[string]*list.Element),
		lru:      list.New(),
		byJob:    make(map[string]map[*entry]struct{}),
	}
}

// NewBlob returns a buffer of n bytes with one holder, its creator, who
// fills it — Bytes is NOT zeroed: a reused buffer still carries what its
// last holder left there — and then either publishes it or lets it go
// (Release; Abandon if something else may still be writing to it). Buffers
// of minReuseBytes and up come from, and return to, this cache's free list.
func (c *Cache) NewBlob(n int) *Blob {
	if n < minReuseBytes {
		b := &Blob{buf: make([]byte, n), n: n}
		b.refs.Store(1)
		return b
	}
	class := classSize(n)
	b := &Blob{n: n, home: c}
	b.refs.Store(1)
	c.mu.Lock()
	c.live++
	// Newest first: the buffer released last is the one most likely still
	// in a processor cache.
	for i := len(c.free) - 1; i >= 0; i-- {
		if len(c.free[i]) == class {
			b.buf = c.free[i]
			c.free = append(c.free[:i], c.free[i+1:]...)
			c.freeBytes -= int64(class)
			break
		}
	}
	c.mu.Unlock()
	if b.buf == nil {
		b.buf = make([]byte, class)
	}
	return b
}

// recycle takes a counted buffer back at count zero. It joins the free list
// unless someone may still touch it uncounted (loose); the list is trimmed,
// oldest first, to its share of the budget and to the room the entries
// leave.
func (c *Cache) recycle(b *Blob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live--
	if b.loose {
		return
	}
	if poisonFreed {
		// By doubling copies: a byte loop under the race detector costs
		// tens of milliseconds per megabyte.
		b.buf[0] = 0xDB
		for n := 1; n < len(b.buf); n *= 2 {
			copy(b.buf[n:], b.buf[:n])
		}
	}
	c.free = append(c.free, b.buf)
	c.freeBytes += int64(len(b.buf))
	c.trimFree(min(c.maxBytes/maxFreeShare, c.maxBytes-c.curBytes))
}

// trimFree drops the oldest free buffers until at most limit bytes are
// left. Callers hold c.mu.
func (c *Cache) trimFree(limit int64) {
	drop := 0
	for c.freeBytes > max(limit, 0) {
		c.freeBytes -= int64(len(c.free[drop]))
		c.free[drop] = nil
		drop++
	}
	c.free = c.free[drop:]
}

// remove takes e out of the table, the LRU and its owners' sets, and
// returns the entry's hold on its blob for the caller to release once c.mu
// is dropped. Callers hold c.mu.
func (c *Cache) remove(el *list.Element) *Blob {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.byDigest, e.digest)
	c.curBytes -= int64(e.blob.n)
	for _, job := range e.owners {
		c.disown(job, e)
	}
	return e.blob
}

// disown drops e from job's set. Callers hold c.mu.
func (c *Cache) disown(job string, e *entry) {
	set := c.byJob[job]
	delete(set, e)
	if len(set) == 0 {
		delete(c.byJob, job)
	}
}

// own records job as an owner of e; "" owns nothing. Callers hold c.mu.
func (c *Cache) own(job string, e *entry) {
	if job == "" {
		return
	}
	set := c.byJob[job]
	if set == nil {
		set = make(map[*entry]struct{})
		c.byJob[job] = set
	}
	if _, dup := set[e]; !dup {
		set[e] = struct{}{}
		e.owners = append(e.owners, job)
	}
}

// insert stores e under its digest unless the digest is already cached, in
// which case the cached entry is refreshed and returned instead (storing
// the same content twice is idempotent; only the first insertion counts as
// a transfer). Inserting past the byte budget drops free buffers, then
// evicts least-recently-used entries (the new entry itself is always kept,
// even when it alone exceeds the budget); the evicted entries' holds are
// returned, for the caller to release once c.mu is dropped. Callers hold
// c.mu.
func (c *Cache) insert(e *entry) (stored *entry, dropped []*Blob) {
	if el, ok := c.byDigest[e.digest]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry), nil
	}
	c.byDigest[e.digest] = c.lru.PushFront(e)
	c.curBytes += int64(e.blob.n)
	c.puts++
	c.trimFree(c.maxBytes - c.curBytes)
	for c.curBytes > c.maxBytes && c.lru.Len() > 1 {
		dropped = append(dropped, c.remove(c.lru.Back()))
	}
	return e, dropped
}

// putKept is Put and PutBlob: store uncounted bytes that belong to no job.
func (c *Cache) putKept(digest string, raw []byte, arch *Archive) {
	b := &Blob{buf: raw, n: len(raw)}
	b.refs.Store(1)
	c.mu.Lock()
	e, dropped := c.insert(&entry{digest: digest, blob: b, arch: arch})
	e.kept = true
	if e.arch == nil {
		// An archive insert upgrades a raw-bytes entry so a later Get can
		// return the parsed form without re-parsing.
		e.arch = arch
	}
	c.mu.Unlock()
	releaseAll(dropped)
}

func releaseAll(blobs []*Blob) {
	for _, b := range blobs {
		b.Release()
	}
}

// Put stores an archive under its digest.
func (c *Cache) Put(a *Archive) error {
	if a == nil {
		return fmt.Errorf("archive: cache: nil archive")
	}
	c.putKept(a.Digest(), a.Bytes(), a)
	return nil
}

// PutBlob stores raw content-addressed bytes under their digest, owned by
// no job: they stay until the LRU evicts them. The caller must have
// digest-verified raw and must not mutate it afterwards.
func (c *Cache) PutBlob(digest string, raw []byte) {
	if digest == "" {
		return
	}
	c.putKept(digest, raw, nil)
}

// Publish stores b — filled by its creator, who has verified that its bytes
// hash to digest — as a data-plane entry owned by job, and returns the blob
// now cached under digest with a hold for the caller. It consumes the
// creator's hold on b: when the digest was already cached (two jobs put the
// same bytes, or two tasks pulled them at once) the cached blob is the one
// returned and b goes back to the free list. From here on the bytes are
// immutable.
func (c *Cache) Publish(job, digest string, b *Blob) *Blob {
	c.mu.Lock()
	e, dropped := c.insert(&entry{digest: digest, blob: b})
	c.own(job, e)
	held := e.blob
	if held != b {
		dropped = append(dropped, b) // the creator's hold; the entry has its own
	}
	held.refs.Add(1) // under c.mu the entry's hold keeps it above zero
	c.mu.Unlock()
	releaseAll(dropped)
	return held
}

// Acquire returns the blob cached under digest with a hold for the caller,
// refreshing its recency, and records job ("" for none: a peer's fetch is
// served on behalf of no local job) as one of its owners.
func (c *Cache) Acquire(job, digest string) (*Blob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byDigest[digest]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	e := el.Value.(*entry)
	c.own(job, e)
	e.blob.refs.Add(1)
	return e.blob, true
}

// ReleaseJob ends job's ownership of every entry it put or pulled: an entry
// no job owns any more leaves the cache at once (and its buffer joins the
// free list as soon as nothing else holds it). Archives and PutBlob entries
// are not affected.
func (c *Cache) ReleaseJob(job string) {
	c.mu.Lock()
	var dropped []*Blob
	for e := range c.byJob[job] {
		for i, o := range e.owners {
			if o == job {
				e.owners = append(e.owners[:i], e.owners[i+1:]...)
				break
			}
		}
		if len(e.owners) == 0 && !e.kept {
			dropped = append(dropped, c.remove(c.byDigest[e.digest]))
		}
	}
	delete(c.byJob, job)
	c.mu.Unlock()
	releaseAll(dropped)
}

// OwnedBy returns how many entries job owns here.
func (c *Cache) OwnedBy(job string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byJob[job])
}

// LiveBlobs returns how many counted buffers of this cache have a holder:
// zero once every job that used the data plane here has been released and
// no task or reply frame is left.
func (c *Cache) LiveBlobs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// FreeBytes returns the size of the free list.
func (c *Cache) FreeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeBytes
}

// Get returns the archive stored under digest, refreshing its recency.
// Blobs cached via PutBlob are not archives and miss here.
func (c *Cache) Get(digest string) (*Archive, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byDigest[digest]
	if !ok || el.Value.(*entry).arch == nil {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).arch, true
}

// GetBlob returns the raw bytes stored under digest — archive or shuffle
// blob alike — refreshing recency. The returned slice is shared; callers
// must not mutate it. It is handed out uncounted, so the buffer behind it
// is never reused: the data plane's own readers use Acquire.
func (c *Cache) GetBlob(digest string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byDigest[digest]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	b := el.Value.(*entry).blob
	b.loose = true
	return b.Bytes(), true
}

// Has reports whether the digest is cached, counting a hit (and
// refreshing recency) when it is — the negotiation's "no transfer needed"
// outcome.
func (c *Cache) Has(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byDigest[digest]
	if ok {
		c.lru.MoveToFront(el)
		c.hits++
	}
	return ok
}

// RecentDigests returns up to max cached digests in most-recently-used
// order — the bounded locality sample a TaskManager advertises in its
// placement offers. The walk neither refreshes recency nor counts as a
// hit or miss: advertising a digest is not using it.
func (c *Cache) RecentDigests(max int) []string {
	if max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() == 0 {
		return nil
	}
	if max > c.lru.Len() {
		max = c.lru.Len()
	}
	out := make([]string, 0, max)
	for el := c.lru.Front(); el != nil && len(out) < max; el = el.Next() {
		out = append(out, el.Value.(*entry).digest)
	}
	return out
}

// Len returns the number of distinct blobs cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byDigest)
}

// SizeBytes returns the cached blobs' total size.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// Transfers returns how many distinct blobs were ever inserted — the
// node's blob-bytes-on-the-wire figure benchmarks assert on.
func (c *Cache) Transfers() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

// Hits returns how many lookups found their digest already cached.
func (c *Cache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns how many Get/GetBlob lookups found nothing cached.
func (c *Cache) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}
