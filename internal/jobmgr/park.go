// The park table: every try-then-park request — TS_IN, TS_RD and
// DATA_RESOLVE — gets one record here, whichever store answers it. A request
// registers under its requester key, tries its store (Space.Await,
// Broker.Await) and, on a miss, leaves a waiter there and is held: the
// store's wake answers it later on the goroutine of the TS_OUT, DATA_PUT or
// close that claims the waiter, or the park window lapses and it is answered
// Retry. A requester that abandons a call sends TS_CANCEL naming it: the park
// is withdrawn from its store, and an answer already in flight finds it
// cancelled and is not sent. What the stores' answers mean — a tuple to put
// back, a counter to bump — stays with the caller's callbacks.

package jobmgr

import (
	"sync"
	"time"

	"cn/internal/msg"
	"cn/internal/protocol"
)

// Park-window clamps: a caller-supplied window is bounded so a malformed
// request can neither spin the requester's retry loop nor stay parked past
// every caller's wire deadline. The ceiling stays under protocol.CallTimeout
// with room for the reply to travel — a park that outlived the caller's call
// would answer a dropped correlation, and for TS_IN that destroys the
// matched tuple.
const (
	minPark = 10 * time.Millisecond
	maxPark = protocol.CallTimeout - 2*time.Second
)

// parkKey identifies a parked request by requester node + request message ID
// (message IDs are only unique per producing process).
type parkKey struct {
	node string
	id   uint64
}

// park is one try-then-park request from registration to answer — or, with
// aborted set while it is in the table, the tombstone of a cancel that
// arrived before its request did.
type park struct {
	key parkKey
	// Guarded by parkTable.mu.
	withdraw func() bool // the store's Cancel of the waiter left for it
	timer    *time.Timer // the park window, or a tombstone's lifetime
	aborted  bool
}

// parkTable indexes in-flight parked requests. A request registers on the
// goroutine that delivered it, so on one connection a requester's cancel
// cannot overtake its own request; across two (a requester that re-dialed in
// between) it still can, and such an early cancel leaves a tombstone the
// request consumes at registration.
type parkTable struct {
	mu sync.Mutex
	m  map[parkKey]*park
}

// register enters request m before it touches its store. It returns nil
// when m's requester already cancelled it: the tombstone is consumed and m
// must be neither tried nor answered.
func (pt *parkTable) register(m *msg.Message) *park {
	key := parkKey{node: m.From.Node, id: m.ID}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if p := pt.m[key]; p != nil && p.aborted {
		delete(pt.m, key)
		return nil
	}
	p := &park{key: key}
	pt.m[key] = p
	return p
}

// hold parks p after its store registered a waiter: withdraw is the store's
// Cancel of that waiter, and lapse answers Retry when the window parkMS asks
// for (0 = protocol.ParkWindow, clamped to [minPark, maxPark]) passes first.
func (pt *parkTable) hold(p *park, parkMS int64, withdraw func() bool, lapse func()) {
	window := time.Duration(parkMS) * time.Millisecond
	if window <= 0 {
		window = protocol.ParkWindow
	}
	pt.mu.Lock()
	if pt.m[p.key] != p {
		// Answered already, or cancelled before there was a waiter to
		// withdraw: the cancel left that to us.
		aborted := p.aborted
		pt.mu.Unlock()
		if aborted {
			withdraw()
		}
		return
	}
	p.withdraw = withdraw
	p.timer = time.AfterFunc(min(max(window, minPark), maxPark), func() {
		// Parked past the window unanswered; the requester re-issues, which
		// is also its liveness probe against this JobManager.
		if withdraw() && pt.done(p) {
			lapse()
		}
	})
	pt.mu.Unlock()
}

// done retires p as its answer is about to be sent and reports whether it
// should be: false when the requester cancelled it first. aborted is read
// under the lock abort sets it under, so once abort returns, an answer still
// in flight sees it.
func (pt *parkTable) done(p *park) bool {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.m[p.key] == p {
		delete(pt.m, p.key)
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	return !p.aborted
}

// abort cancels the request key names on its requester's behalf, withdrawing
// its waiter from the store; a request not registered yet leaves a
// tombstone.
func (pt *parkTable) abort(key parkKey) {
	var withdraw func() bool
	pt.mu.Lock()
	switch p := pt.m[key]; {
	case p == nil:
		// The cancel outran its request: a tombstone the request consumes,
		// gone once no call can still be carrying it.
		t := &park{key: key, aborted: true}
		t.timer = time.AfterFunc(2*protocol.CallTimeout, func() { pt.done(t) })
		pt.m[key] = t
	case !p.aborted: // a tombstone cancelled again stays for its request
		p.aborted = true
		delete(pt.m, key)
		if p.timer != nil {
			p.timer.Stop()
		}
		withdraw = p.withdraw
	}
	pt.mu.Unlock()
	if withdraw != nil {
		// Withdrawn: no answer will ever run. Otherwise one is in flight
		// and done tells it not to send.
		withdraw()
	}
}

// HandleTSCancel processes a requester's notice that it abandoned a parked
// request — TS_IN, TS_RD or DATA_RESOLVE alike. No reply: the requester
// already moved on.
func (jm *JobManager) HandleTSCancel(m *msg.Message) {
	var req protocol.TSCancelReq
	if err := protocol.Decode(m, &req); err != nil {
		jm.logf("bad ts-cancel: %v", err)
		return
	}
	jm.parked.abort(parkKey{node: m.From.Node, id: req.ReqID})
}

// Parked reports how many records the park table holds: requests parked
// at a store, plus the tombstones of cancels that outran their requests.
func (jm *JobManager) Parked() int {
	jm.parked.mu.Lock()
	defer jm.parked.mu.Unlock()
	return len(jm.parked.m)
}
