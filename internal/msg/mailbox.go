package msg

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Mailbox errors.
var (
	// ErrClosed is returned by Put once the mailbox has been closed and, by
	// the gets, once it is closed and drained.
	ErrClosed = errors.New("msg: mailbox closed")
	// ErrEmpty is returned by TryGet when nothing is queued.
	ErrEmpty = errors.New("msg: mailbox empty")
)

// Mailbox is the message queue the TaskManager sets up for each task
// ("TaskManager in turn sets up a message queue for each Task"), and the
// queue behind every other reader of the paper's message path. It is an
// unbounded FIFO: items leave in the order they were put, a Put never
// blocks, and it fails only once Close has been called. Bounding the queue,
// where one is needed, is left to its owner, which checks Len where it
// puts. A closed mailbox refuses new items but lets queued ones be read. An
// item leaves the mailbox's memory when it is read. It is safe for
// concurrent use.
type Mailbox[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	// ring holds the n queued items from head on, wrapping at its end.
	ring    []T
	head, n int
	closed  bool
}

// NewMailbox creates an empty, open mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	mb := &Mailbox[T]{}
	mb.notEmpty.L = &mb.mu
	return mb
}

// Len returns the number of queued items.
func (mb *Mailbox[T]) Len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.n
}

// Put enqueues v. It returns ErrClosed once the mailbox is closed.
func (mb *Mailbox[T]) Put(v T) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	if mb.n == len(mb.ring) {
		mb.resizeLocked(max(2*len(mb.ring), 8))
	}
	mb.ring[(mb.head+mb.n)%len(mb.ring)] = v
	mb.n++
	mb.notEmpty.Signal()
	return nil
}

// Grow makes room for n more items, so the Puts an owner knows are coming
// do not grow the ring one doubling at a time.
func (mb *Mailbox[T]) Grow(n int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if need := mb.n + n; need > len(mb.ring) {
		mb.resizeLocked(need)
	}
}

// resizeLocked moves the queued items, oldest first, into a ring of size
// slots. mb.mu must be held.
func (mb *Mailbox[T]) resizeLocked(size int) {
	ring := make([]T, size)
	copy(ring[copy(ring, mb.ring[mb.head:]):], mb.ring[:mb.head])
	mb.ring, mb.head = ring, 0
}

// Get dequeues the oldest item, blocking while the mailbox is empty. It
// returns ErrClosed once the mailbox is closed and drained.
func (mb *Mailbox[T]) Get() (T, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.n == 0 && !mb.closed {
		mb.notEmpty.Wait()
	}
	return mb.popLocked()
}

// GetContext is Get with cancellation: it returns ctx.Err() if ctx is done
// before an item arrives.
func (mb *Mailbox[T]) GetContext(ctx context.Context) (T, error) {
	// Wake the condition variable when the context fires so the waiting
	// goroutine can observe cancellation.
	stop := context.AfterFunc(ctx, func() {
		mb.mu.Lock()
		mb.notEmpty.Broadcast()
		mb.mu.Unlock()
	})
	defer stop()

	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.n == 0 && !mb.closed && ctx.Err() == nil {
		mb.notEmpty.Wait()
	}
	if err := ctx.Err(); err != nil && mb.n == 0 {
		var zero T
		return zero, fmt.Errorf("msg: get: %w", err)
	}
	return mb.popLocked()
}

// TryGet dequeues without blocking, returning ErrEmpty when nothing is
// queued (or ErrClosed when closed and drained).
func (mb *Mailbox[T]) TryGet() (T, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.popLocked()
}

// popLocked dequeues the oldest item and clears its slot, so the mailbox
// does not keep it reachable. mb.mu must be held.
func (mb *Mailbox[T]) popLocked() (T, error) {
	var zero T
	if mb.n == 0 {
		if mb.closed {
			return zero, ErrClosed
		}
		return zero, ErrEmpty
	}
	v := mb.ring[mb.head]
	mb.ring[mb.head] = zero
	mb.head = (mb.head + 1) % len(mb.ring)
	mb.n--
	return v, nil
}

// Close marks the mailbox closed, waking all blocked readers. Close is
// idempotent.
func (mb *Mailbox[T]) Close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.notEmpty.Broadcast()
}

// Drain dequeues and returns all currently queued items, oldest first,
// without blocking.
func (mb *Mailbox[T]) Drain() []T {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	out := make([]T, mb.n)
	for i := range out {
		out[i], _ = mb.popLocked()
	}
	return out
}
