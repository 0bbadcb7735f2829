package jobmgr

import (
	"sync"
	"testing"
	"time"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/tuplespace"
)

// The park table's invariants, run over both kinds that park: driven through
// the handlers on the test's goroutine, with the manager's sends captured, so
// nothing is waited on but the park window's own timer.

// outbox captures what a JobManager sends, by the request each reply answers.
type outbox chan *msg.Message

func (o outbox) send(_ string, m *msg.Message) error {
	o <- m
	return nil
}

// replies drains what has been sent so far and returns the replies to id.
func (o outbox) replies(id uint64) []*msg.Message {
	var got []*msg.Message
	for {
		select {
		case m := <-o:
			if m.CorrelID == id {
				got = append(got, m)
			}
		default:
			return got
		}
	}
}

// await waits for the next reply to id, as a park window's timer sends it.
func (o outbox) await(t *testing.T, id uint64) *msg.Message {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-o:
			if m.CorrelID == id {
				return m
			}
		case <-deadline:
			t.Fatalf("no reply to request %d", id)
			return nil
		}
	}
}

// parkKind is one kind of try-then-park request and how a test speaks it.
type parkKind struct {
	name string
	// request builds one request that can park for parkMS.
	request func(jobID string, parkMS int64) *msg.Message
	handle  func(jm *JobManager, m *msg.Message)
	// satisfy supplies what the request waits for.
	satisfy func(t *testing.T, jm *JobManager, jobID string)
	// outcome reads a reply: answered with what satisfy supplied, or Retry.
	outcome func(t *testing.T, m *msg.Message) (answered, retry bool)
	// leftFor checks, after a cancelled park met satisfy, that what satisfy
	// supplied was left for others: the tuple is still stored, the put woke
	// no resolve.
	leftFor func(t *testing.T, jm *JobManager, j *jobState)
}

var requester = msg.Address{Node: "c1", Task: protocol.ClientTaskName}

func parkKinds(t *testing.T) []parkKind {
	tpl := tuplespace.Tuple{"k", tuplespace.TypeOf(0)}
	return []parkKind{{
		name: "TS_IN",
		request: func(jobID string, parkMS int64) *msg.Message {
			return protocol.Body(msg.KindTSIn, requester, msg.Address{Node: "n1", Job: jobID}, protocol.TSOpReq{ParkMS: parkMS, Tuple: tpl})
		},
		handle: (*JobManager).HandleTSOp,
		satisfy: func(t *testing.T, jm *JobManager, jobID string) {
			jm.HandleTSOp(protocol.Body(msg.KindTSOut, requester, msg.Address{Node: "n1", Job: jobID},
				protocol.TSOpReq{Tuple: tuplespace.Tuple{"k", 7}, NoReply: true}))
		},
		outcome: func(t *testing.T, m *msg.Message) (bool, bool) {
			var resp protocol.TSOpResp
			if err := protocol.Decode(m, &resp); err != nil {
				t.Fatal(err)
			}
			return resp.OK && len(resp.Tuple) == 2 && resp.Tuple[1] == 7, resp.Retry
		},
		leftFor: func(t *testing.T, _ *JobManager, j *jobState) {
			if got := j.space.Count(tuplespace.Template{"k", 7}); got != 1 {
				t.Errorf("%d tuples stored after the cancelled park met an Out, want the one it left", got)
			}
		},
	}, {
		name: "DATA_RESOLVE",
		request: func(jobID string, parkMS int64) *msg.Message {
			return protocol.Body(msg.KindDataResolve, requester, msg.Address{Node: "n1"},
				protocol.DataResolveReq{JobID: jobID, Key: "k", Task: "consumer", ParkMS: parkMS})
		},
		handle: (*JobManager).HandleDataResolve,
		satisfy: func(t *testing.T, jm *JobManager, jobID string) {
			ack := jm.HandleDataPut(protocol.Body(msg.KindDataPut, requester, msg.Address{Node: "n1"},
				protocol.DataPutReq{JobID: jobID, Key: "k", Task: "producer", Node: "p", Digest: "d", Size: 1 << 20}))
			var resp protocol.DataLocResp
			if err := protocol.Decode(ack, &resp); err != nil || resp.Err != "" {
				t.Fatalf("put: %+v %v", resp, err)
			}
		},
		outcome: func(t *testing.T, m *msg.Message) (bool, bool) {
			var resp protocol.DataLocResp
			if err := protocol.Decode(m, &resp); err != nil {
				t.Fatal(err)
			}
			return resp.Node == "p" && resp.Digest == "d", resp.Retry
		},
		leftFor: func(t *testing.T, jm *JobManager, _ *jobState) {
			if got := jm.DataplaneStats().Resolves; got != 0 {
				t.Errorf("the put answered %d resolves; the cancelled one's waiter should have been withdrawn", got)
			}
		},
	}}
}

// parkJob starts a JobManager whose sends land in the returned outbox, and
// creates one job on it.
func parkJob(t *testing.T) (*JobManager, *jobState, outbox) {
	t.Helper()
	out := make(outbox, 64)
	jm := New(config.Config{HeartbeatInterval: -1}, "n1", nil, out.send, nil, nil)
	t.Cleanup(jm.Close)
	j := openTestJob(t, jm, "parks")
	return jm, j, out
}

func cancelReq(jobID string, id uint64) *msg.Message {
	return protocol.Body(msg.KindTSCancel, requester, msg.Address{Node: "n1"}, protocol.TSCancelReq{JobID: jobID, ReqID: id})
}

func wantParked(t *testing.T, jm *JobManager, want int, when string) {
	t.Helper()
	if got := jm.Parked(); got != want {
		t.Errorf("%s: %d records in the park table, want %d", when, got, want)
	}
}

// longPark keeps a request parked for the whole test.
const longPark = 20_000

func TestParkTable(t *testing.T) {
	for _, k := range parkKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			t.Run("HitLeavesNoEntry", func(t *testing.T) {
				jm, j, out := parkJob(t)
				k.satisfy(t, jm, j.id)
				m := k.request(j.id, longPark)
				k.handle(jm, m)
				replies := out.replies(m.ID)
				if len(replies) != 1 {
					t.Fatalf("%d replies to a request that found its answer, want 1", len(replies))
				}
				if answered, _ := k.outcome(t, replies[0]); !answered {
					t.Errorf("hit not answered with what was there")
				}
				wantParked(t, jm, 0, "after a hit")
			})

			t.Run("EarlyCancelConsumesItsTombstone", func(t *testing.T) {
				jm, j, out := parkJob(t)
				m := k.request(j.id, longPark)
				jm.HandleTSCancel(cancelReq(j.id, m.ID))
				wantParked(t, jm, 1, "after a cancel that outran its request")
				k.handle(jm, m)
				wantParked(t, jm, 0, "after the cancelled request arrived")
				k.satisfy(t, jm, j.id)
				if got := out.replies(m.ID); len(got) != 0 {
					t.Errorf("a request cancelled before it arrived was answered %d times", len(got))
				}
				k.leftFor(t, jm, j)
			})

			t.Run("CancelWithdrawsThePark", func(t *testing.T) {
				jm, j, out := parkJob(t)
				m := k.request(j.id, longPark)
				k.handle(jm, m)
				wantParked(t, jm, 1, "while parked")
				jm.HandleTSCancel(cancelReq(j.id, m.ID))
				wantParked(t, jm, 0, "after the cancel")
				k.satisfy(t, jm, j.id)
				if got := out.replies(m.ID); len(got) != 0 {
					t.Errorf("a cancelled park was answered %d times", len(got))
				}
				k.leftFor(t, jm, j)
			})

			t.Run("LapsedWindowAnswersRetryOnce", func(t *testing.T) {
				jm, j, out := parkJob(t)
				m := k.request(j.id, 1) // clamped up to minPark
				k.handle(jm, m)
				if _, retry := k.outcome(t, out.await(t, m.ID)); !retry {
					t.Fatal("a lapsed park was not answered Retry")
				}
				wantParked(t, jm, 0, "after the window lapsed")
				k.satisfy(t, jm, j.id)
				if got := out.replies(m.ID); len(got) != 0 {
					t.Errorf("a park answered Retry was answered %d more times", len(got))
				}
			})

			t.Run("JobEndEmptiesTheTable", func(t *testing.T) {
				jm, j, _ := parkJob(t)
				for i := 0; i < 3; i++ {
					k.handle(jm, k.request(j.id, longPark))
				}
				wantParked(t, jm, 3, "three parked")
				jm.HandleCancel(protocol.Body(msg.KindCancelJob, requester, msg.Address{Node: "n1"},
					protocol.CancelJobReq{JobID: j.id, Reason: "test"}))
				wantParked(t, jm, 0, "after the job ended")
			})
		})
	}
}

// TestCancelledTakePutsTheTupleBack: a TS_IN whose cancel lands after the
// space handed it a tuple — the answer in flight — puts the tuple back
// instead of sending it to the dropped correlation.
func TestCancelledTakePutsTheTupleBack(t *testing.T) {
	jm, j, out := parkJob(t)
	m := parkKinds(t)[0].request(j.id, longPark)
	p := jm.parked.register(m)
	jm.HandleTSCancel(cancelReq(j.id, m.ID))
	jm.tsFinish(p, j, m, tuplespace.Tuple{"k", 7}, nil, true)
	if got := out.replies(m.ID); len(got) != 0 {
		t.Errorf("the cancelled take was answered %d times", len(got))
	}
	if got := j.space.Count(tuplespace.Template{"k", 7}); got != 1 {
		t.Errorf("%d copies of the taken tuple in the space, want it back", got)
	}
	wantParked(t, jm, 0, "after the put-back")
}

// TestParkStormConservesTuples: TS_INs that park, lapse, meet their Out or
// are cancelled — each on a goroutine of its own, as the fabric delivers
// them — answer every request at most once and lose or duplicate no tuple:
// what the replies carried plus what the space still holds is every tuple
// Out'd. Run with -race.
func TestParkStormConservesTuples(t *testing.T) {
	const n = 300
	var mu sync.Mutex
	replies := make(map[uint64]int)
	delivered := 0
	jm := New(config.Config{HeartbeatInterval: -1}, "n1", nil, func(_ string, m *msg.Message) error {
		var resp protocol.TSOpResp
		if err := protocol.Decode(m, &resp); err != nil {
			return err
		}
		mu.Lock()
		replies[m.CorrelID]++
		if resp.OK {
			delivered++
		}
		mu.Unlock()
		return nil
	}, nil, nil)
	defer jm.Close()
	j := openTestJob(t, jm, "storm")
	in := parkKinds(t)[0]
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		m := in.request(j.id, int64(1+i%40)) // windows of 10..40 ms: many lapse
		wg.Add(3)
		go func() { defer wg.Done(); jm.HandleTSOp(m) }()
		go func() {
			defer wg.Done()
			if i%3 == 0 {
				jm.HandleTSCancel(cancelReq(j.id, m.ID))
			}
		}()
		go func() {
			defer wg.Done()
			jm.HandleTSOp(protocol.Body(msg.KindTSOut, requester, msg.Address{Node: "n1", Job: j.id},
				protocol.TSOpReq{Tuple: tuplespace.Tuple{"k", i}, NoReply: true}))
		}()
	}
	wg.Wait()
	// Every park lapses within maxPark; what stays is tombstones of cancels
	// that came after their request was answered.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		jm.parked.mu.Lock()
		live := 0
		for _, p := range jm.parked.m {
			if !p.aborted {
				live++
			}
		}
		jm.parked.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still parked", live)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for id, k := range replies {
		if k > 1 {
			t.Errorf("request %d answered %d times", id, k)
		}
	}
	if stored := j.space.Len(); delivered+stored != n {
		t.Errorf("%d tuples delivered + %d stored, want the %d Out'd", delivered, stored, n)
	}
}
