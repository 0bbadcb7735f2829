package archive_test

// The lifetime of a data-plane buffer, as tests: docs/DATAPLANE.md,
// "Lifetime of a shuffled byte". Poison-on-free is on throughout, so a
// buffer that reached the free list reads 0xDB from its first byte to its
// last, whoever still looks.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"cn/internal/archive"
)

func TestMain(m *testing.M) {
	defer archive.PoisonFreed()()
	m.Run()
}

const mib = 1 << 20

// fill writes a recognisable pattern and returns its digest.
func fill(b *archive.Blob, seed byte) string {
	p := b.Bytes()
	for i := range p {
		p[i] = seed + byte(i)
	}
	return archive.DigestBytes(p)
}

func isPoison(p []byte) bool {
	return len(p) > 0 && bytes.Equal(p, bytes.Repeat([]byte{0xDB}, len(p)))
}

// TestDigestPiecewiseAgrees: the digest taken in pieces — DigestBytes over
// the whole, and a Digest fed in chunks that straddle the piece size — is
// the one-shot SHA-256, at the sizes where an off-by-one would show.
func TestDigestPiecewiseAgrees(t *testing.T) {
	piece := archive.DigestPiece
	for _, n := range []int{0, 1, piece - 1, piece, piece + 1, 3 * mib} {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(i*7 + i>>8)
		}
		sum := sha256.Sum256(raw)
		want := hex.EncodeToString(sum[:])
		if got := archive.DigestBytes(raw); got != want {
			t.Errorf("DigestBytes(%d bytes) = %s, want %s", n, got, want)
		}
		d := archive.NewDigest()
		for rest, step := raw, piece+4097; len(rest) > 0; {
			k := min(step, len(rest))
			d.Write(rest[:k])
			rest = rest[k:]
		}
		if got := d.Sum(); got != want {
			t.Errorf("chunked digest of %d bytes = %s, want %s", n, got, want)
		}
	}
}

// TestClassSizeWastesAtMostAQuarter: a class is never smaller than the
// request and never more than a quarter larger; the benchmark's 3 MiB and
// every power of two are classes of their own.
func TestClassSizeWastesAtMostAQuarter(t *testing.T) {
	for n := archive.MinReuseBytes; n < 9*mib; n += 4093 {
		c := archive.ClassSize(n)
		if c < n || c-n > n/4 {
			t.Fatalf("class of %d is %d", n, c)
		}
		if archive.ClassSize(c) != c {
			t.Fatalf("class %d of %d is not its own class (%d)", c, n, archive.ClassSize(c))
		}
	}
	for _, n := range []int{archive.MinReuseBytes, 3 * mib, 4 * mib, 5 * mib} {
		if c := archive.ClassSize(n); c != n {
			t.Errorf("class of %d is %d, want exact", n, c)
		}
	}
}

// TestBlobReusedOnlyAtZero walks one buffer through its four kinds of
// holder. While any of them is left it is neither on the free list nor
// poisoned; the release that brings the count to zero puts it there, and the
// next NewBlob of the class gets that very memory.
func TestBlobReusedOnlyAtZero(t *testing.T) {
	c := archive.NewCache()
	b := c.NewBlob(3 * mib) // holder: the creator
	digest := fill(b, 1)
	view := b.Bytes() // what a holder that forgot to let go would read
	want := append([]byte(nil), view...)
	first := &view[0]

	task := c.Publish("j1", digest, b) // creator's hold becomes the entry's; +1 for the task
	if task != b {
		t.Fatal("publishing a new digest returned another blob")
	}
	reply, ok := c.Acquire("", digest) // +1 for a DATA_FETCH reply
	if !ok || reply != b {
		t.Fatal("the published blob is not acquirable")
	}
	if c.LiveBlobs() != 1 || c.OwnedBy("j1") != 1 {
		t.Fatalf("live %d, owned %d; want 1, 1", c.LiveBlobs(), c.OwnedBy("j1"))
	}

	c.ReleaseJob("j1") // the entry lets go
	if _, ok := c.Acquire("", digest); ok {
		t.Fatal("an entry no job owns is still cached")
	}
	task.Release()
	if c.FreeBytes() != 0 || !bytes.Equal(reply.Bytes(), want) {
		t.Fatal("the buffer was freed or overwritten while a reply frame still held it")
	}
	reply.Release() // zero
	if c.FreeBytes() != 3*mib || c.LiveBlobs() != 0 {
		t.Fatalf("at count zero: %d free bytes, %d live; want the buffer, 0", c.FreeBytes(), c.LiveBlobs())
	}
	if !isPoison(view) {
		t.Error("a freed buffer was not poisoned")
	}
	next := c.NewBlob(3*mib - 100) // same class
	if &next.Bytes()[0] != first || c.FreeBytes() != 0 {
		t.Error("the next buffer of the class is not the freed one")
	}
	if len(next.Bytes()) != 3*mib-100 || cap(next.Bytes()) != 3*mib-100 {
		t.Errorf("reused blob has len %d cap %d", len(next.Bytes()), cap(next.Bytes()))
	}
	next.Release()

	defer func() {
		if recover() == nil {
			t.Error("releasing below zero did not panic")
		}
	}()
	next.Release()
}

// TestOwnershipIsByJobContentByDigest: two jobs that put the same bytes
// share one entry with two owners; the first to finish does not take it from
// the second, and the duplicate buffer goes straight back to the free list.
func TestOwnershipIsByJobContentByDigest(t *testing.T) {
	c := archive.NewCache()
	b1 := c.NewBlob(mib)
	digest := fill(b1, 9)
	h1 := c.Publish("j1", digest, b1)
	b2 := c.NewBlob(mib)
	fill(b2, 9)
	h2 := c.Publish("j2", digest, b2)
	if h2 != b1 {
		t.Fatal("the second job's identical bytes got an entry of their own")
	}
	if c.Len() != 1 || c.Transfers() != 1 || c.FreeBytes() != mib {
		t.Fatalf("len %d, transfers %d, free %d; want one entry and the duplicate freed", c.Len(), c.Transfers(), c.FreeBytes())
	}
	h1.Release()
	h2.Release()

	c.ReleaseJob("j1")
	got, ok := c.Acquire("j2", digest)
	if !ok || isPoison(got.Bytes()) {
		t.Fatal("the first job to finish took the second job's bytes")
	}
	got.Release()
	c.ReleaseJob("j2")
	if c.Len() != 0 || c.LiveBlobs() != 0 || c.OwnedBy("j2") != 0 {
		t.Fatalf("after both jobs: len %d, live %d", c.Len(), c.LiveBlobs())
	}
	c.ReleaseJob("j2") // a second release, or one for a job never seen, is nothing
	c.ReleaseJob("nobody")
}

// TestKeptEntriesOutliveJobs: archives and plain PutBlob entries belong to
// no job. A job that reads or re-puts their bytes owns them for a while and
// does not take them along when it goes.
func TestKeptEntriesOutliveJobs(t *testing.T) {
	c := archive.NewCache()
	raw := bytes.Repeat([]byte{7}, 100<<10)
	digest := archive.DigestBytes(raw)
	c.PutBlob(digest, raw)

	h, ok := c.Acquire("j1", digest)
	if !ok {
		t.Fatal("kept entry missing")
	}
	dup := c.NewBlob(len(raw))
	copy(dup.Bytes(), raw)
	h2 := c.Publish("j1", digest, dup)
	h.Release()
	h2.Release()
	c.ReleaseJob("j1")
	if got, ok := c.GetBlob(digest); !ok || &got[0] != &raw[0] {
		t.Fatal("a job took a PutBlob entry with it")
	}

	// The other way round: a job's entry that is then PutBlob'd stays.
	b := c.NewBlob(mib)
	d2 := fill(b, 3)
	c.Publish("j2", d2, b).Release()
	c.PutBlob(d2, append([]byte(nil), b.Bytes()...))
	c.ReleaseJob("j2")
	if !c.Has(d2) {
		t.Error("an entry stored by PutBlob left with a job")
	}
}

// TestAbandonedBufferNeverReused: a failed pull's destination goes to the
// collector — something may still be writing to it.
func TestAbandonedBufferNeverReused(t *testing.T) {
	c := archive.NewCache()
	b := c.NewBlob(mib)
	first := &b.Bytes()[0]
	b.Bytes()[0] = 42
	b.Abandon()
	if c.FreeBytes() != 0 || c.LiveBlobs() != 0 {
		t.Fatalf("after Abandon: %d free bytes, %d live", c.FreeBytes(), c.LiveBlobs())
	}
	if *first != 42 {
		t.Error("an abandoned buffer was poisoned: it entered the free list")
	}
	if next := c.NewBlob(mib); &next.Bytes()[0] == first {
		t.Error("an abandoned buffer was handed out again")
	}
}

// TestUncountedReaderPinsBuffer: GetBlob hands bytes out without a count,
// so the buffer behind them is never reused.
func TestUncountedReaderPinsBuffer(t *testing.T) {
	c := archive.NewCache()
	b := c.NewBlob(mib)
	digest := fill(b, 5)
	c.Publish("j", digest, b).Release()
	got, ok := c.GetBlob(digest)
	if !ok {
		t.Fatal("miss")
	}
	want := append([]byte(nil), got...)
	c.ReleaseJob("j")
	if c.FreeBytes() != 0 || !bytes.Equal(got, want) {
		t.Error("a buffer GetBlob handed out was recycled under its reader")
	}
}

// TestFreeListBoundedWithoutAKnob: small buffers stay with the collector;
// free bytes never exceed a quarter of the budget, count against it, and
// are dropped — oldest first — before a live entry is evicted.
func TestFreeListBoundedWithoutAKnob(t *testing.T) {
	const budget = 16 * mib
	c := archive.NewCacheSize(budget)

	small := c.NewBlob(archive.MinReuseBytes - 1)
	small.Release()
	if c.FreeBytes() != 0 || c.LiveBlobs() != 0 {
		t.Fatalf("a %d-byte buffer joined the free list", archive.MinReuseBytes-1)
	}

	// Ten 1 MiB buffers let go at once: only a quarter of the budget stays,
	// and it is the newest four.
	var blobs []*archive.Blob
	for i := 0; i < 10; i++ {
		blobs = append(blobs, c.NewBlob(mib))
	}
	for _, b := range blobs {
		b.Release()
	}
	if got := c.FreeBytes(); got != budget/archive.MaxFreeShare {
		t.Fatalf("free list holds %d bytes, want the cap %d", got, budget/archive.MaxFreeShare)
	}
	if next := c.NewBlob(mib); &next.Bytes()[0] != &blobs[9].Bytes()[:1][0] {
		t.Error("the free list did not keep the newest buffer")
	} else {
		next.Release()
	}

	// Fill the budget with live entries: the free list gives way first and
	// no entry is evicted until it is empty.
	for i := 0; i < 16; i++ {
		b := c.NewBlob(mib)
		c.Publish("live", fill(b, byte(i)), b).Release()
		if c.SizeBytes()+c.FreeBytes() > budget {
			t.Fatalf("entry %d: %d live + %d free bytes exceed the budget", i, c.SizeBytes(), c.FreeBytes())
		}
		if c.FreeBytes() > 0 && c.Len() != i+1 {
			t.Fatalf("entry %d: an entry was evicted while %d free bytes were left", i, c.FreeBytes())
		}
	}
	if c.Len() != 16 || c.FreeBytes() != 0 {
		t.Fatalf("full cache: %d entries, %d free bytes", c.Len(), c.FreeBytes())
	}
	// With no room left a released buffer is dropped, not kept.
	c.NewBlob(mib).Release()
	if c.FreeBytes() != 0 {
		t.Errorf("a full cache kept %d free bytes", c.FreeBytes())
	}
}

// TestLostReleaseFallsToLRU: a job whose release never arrives keeps its
// entries only until the LRU wants the room; the eviction also forgets the
// ownership, so nothing is left to leak, and a release that does arrive
// late finds nothing to do.
func TestLostReleaseFallsToLRU(t *testing.T) {
	c := archive.NewCacheSize(4 * mib)
	for i := 0; i < 4; i++ {
		b := c.NewBlob(mib)
		c.Publish("lost", fill(b, byte(i)), b).Release()
	}
	if c.OwnedBy("lost") != 4 || c.LiveBlobs() != 4 {
		t.Fatalf("owned %d, live %d; want 4, 4", c.OwnedBy("lost"), c.LiveBlobs())
	}
	for i := 0; i < 4; i++ {
		b := c.NewBlob(mib)
		c.Publish("next", fill(b, byte(100+i)), b).Release()
	}
	if c.OwnedBy("lost") != 0 || c.OwnedBy("next") != 4 || c.LiveBlobs() != 4 {
		t.Fatalf("after eviction: lost owns %d, next owns %d, live %d", c.OwnedBy("lost"), c.OwnedBy("next"), c.LiveBlobs())
	}
	c.ReleaseJob("lost")
	if c.Len() != 4 {
		t.Errorf("a late release of an evicted job touched %d entries", 4-c.Len())
	}
}

// TestCacheOwnershipConcurrent hammers one cache from jobs that put, read,
// serve and finish at once, each checking every byte it reads; under -race
// it is the package's data-race check, and with poison on, a buffer freed
// under a reader fails the comparison.
func TestCacheOwnershipConcurrent(t *testing.T) {
	c := archive.NewCacheSize(32 * mib)
	const jobs, rounds, size = 8, 40, 128 << 10
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				job := fmt.Sprintf("j%d-%d", j, r)
				// Half the rounds put bytes another job puts too.
				seed := byte(r)
				if r%2 == 1 {
					seed = byte(j*rounds + r)
				}
				b := c.NewBlob(size)
				digest := fill(b, seed)
				held := c.Publish(job, digest, b)
				reader, ok := c.Acquire(job, digest)
				if !ok {
					t.Errorf("%s: own entry missing", job)
					held.Release()
					continue
				}
				served, _ := c.Acquire("", digest)
				c.ReleaseJob(job)
				for _, h := range []*archive.Blob{held, reader, served} {
					if h == nil {
						continue
					}
					if p := h.Bytes(); p[0] != seed || p[size-1] != seed+byte((size-1)&0xff) || archive.DigestBytes(p) != digest {
						t.Errorf("%s: read wrong bytes from a held blob", job)
					}
					h.Release()
				}
			}
		}(j)
	}
	wg.Wait()
	if c.LiveBlobs() != 0 || c.Len() != 0 {
		t.Errorf("after every job finished: %d live blobs, %d entries", c.LiveBlobs(), c.Len())
	}
}
