package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/bits"
	"sync/atomic"
)

// digestPiece bounds one hash Write. SHA-256's block function is a single
// non-preemptible assembly call over whatever it is handed; a collection
// that starts while a 3 MiB blob is being hashed in one call has every
// other processor spin until that call returns. 64 KiB is ≈ 30 µs of
// hashing — below a scheduler tick, far above the per-call overhead.
const digestPiece = 64 << 10

// Digest computes a content address over bytes fed to it in any number of
// Writes — a pull feeds it each chunk as the chunk lands — never handing
// the hash more than digestPiece at once.
type Digest struct{ h hash.Hash }

// NewDigest starts an empty digest.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Write feeds p, in pieces. It never fails; the signature is io.Writer's.
func (d *Digest) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		n := min(len(rest), digestPiece)
		d.h.Write(rest[:n])
		rest = rest[n:]
	}
	return len(p), nil
}

// Sum returns the content address of everything written: hex SHA-256.
func (d *Digest) Sum() string {
	var sum [sha256.Size]byte
	return hex.EncodeToString(d.h.Sum(sum[:0]))
}

// DigestBytes is the hex SHA-256 of raw — the content address used end to
// end by the distribution protocol and the data plane.
func DigestBytes(raw []byte) string {
	d := NewDigest()
	d.Write(raw)
	return d.Sum()
}

// minReuseBytes is the smallest buffer worth keeping for reuse. Below it
// the collector's own size classes serve an allocation in well under a
// microsecond and zeroing is noise; the free list exists for the buffers
// whose allocation means fresh pages and whose zeroing is a memclr of
// megabytes.
const minReuseBytes = 64 << 10

// classSize rounds n up to its buffer class: a power of two or one of the
// three quarter steps between two of them (1, 1.25, 1.5, 1.75 × 2^k), so a
// buffer is at most a quarter larger than what was asked for and requests
// of nearly the same size share buffers.
func classSize(n int) int {
	step := (1 << (bits.Len(uint(n)) - 1)) / 4
	return (n + step - 1) / step * step
}

// Blob is a counted buffer: bytes plus the number of holders that may still
// read them. The holders of a data-plane buffer are the cache entry it is
// published under, each task Get handed it to (until the task's Run
// returns), each DATA_FETCH reply whose tail aliases it (until the transport
// has written or dropped that frame), and its creator (until it is published
// or abandoned) — nothing else. Every holder calls Release exactly once;
// the call that brings the count to zero returns the buffer to the free list
// of the cache it came from, where the next NewBlob of its class picks it up
// unzeroed. That is safe on two conditions the callers keep: a buffer is
// written only by its creator and only before it is published (see
// Cache.Publish), and nobody reads it after releasing it.
type Blob struct {
	buf  []byte // class-sized backing; the blob's bytes are buf[:n]
	n    int
	refs atomic.Int32
	// home is the cache whose free list takes buf back at count zero; nil
	// leaves it to the collector (small buffers, and the bytes of archives
	// and plain PutBlob entries, which nobody counts).
	home *Cache
	// loose, guarded by home.mu, marks a buffer someone may touch without
	// holding a count — it was abandoned mid-write, or handed out by
	// GetBlob — so it goes to the collector at zero, never to the free list.
	loose bool
}

// Bytes returns the blob's bytes, capacity clipped so an append cannot
// reach the slack of the class. Valid until the caller's Release.
func (b *Blob) Bytes() []byte { return b.buf[:b.n:b.n] }

// Release drops the caller's hold. Releasing more often than holding is a
// bug that would hand a buffer still in use to the next writer, so it
// panics instead.
func (b *Blob) Release() {
	switch left := b.refs.Add(-1); {
	case left < 0:
		panic("archive: Blob released below zero")
	case left == 0 && b.home != nil:
		b.home.recycle(b)
	}
}

// Abandon is Release for a creator whose write failed part-way: the buffer
// never re-enters the free list, because whoever was filling it (a chunk
// call that timed out, whose reply the transport may still be reading into
// the region that call posted) may write to it yet.
func (b *Blob) Abandon() {
	if b.home != nil {
		b.home.mu.Lock()
		b.loose = true
		b.home.mu.Unlock()
	}
	b.Release()
}
