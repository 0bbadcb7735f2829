// Package discovery implements client-side JobManager discovery:
// "Requests to JobManager are communicated using multicast. JobManagers
// respond to multicast requests for JobManagers if they have free resources
// and are willing to be JobManagers. A JobManager is selected based on User
// specified Job requirements from the list of willing JobManagers."
package discovery

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/transport"
)

// ErrNoOffers indicates that no JobManager answered within the window.
var ErrNoOffers = errors.New("discovery: no JobManager offers received")

// ErrRefused indicates that every JobManager that answered refused.
var ErrRefused = errors.New("discovery: every JobManager that answered refused")

// Policy selects one offer from the willing JobManagers.
type Policy interface {
	// Select returns the chosen offer's index; offers is non-empty.
	Select(offers []protocol.JMOffer) int
	// Name identifies the policy in logs and benches.
	Name() string
}

// FirstResponder picks the earliest offer to arrive — the latency-optimal
// policy.
type FirstResponder struct{}

// Select implements Policy.
func (FirstResponder) Select([]protocol.JMOffer) int { return 0 }

// Name implements Policy.
func (FirstResponder) Name() string { return "first-responder" }

// BestFit picks the node with the most free memory (ties: fewest active
// jobs, then lexicographic node name).
type BestFit struct{}

// Select implements Policy.
func (BestFit) Select(offers []protocol.JMOffer) int {
	best := 0
	for i := 1; i < len(offers); i++ {
		a, b := offers[i], offers[best]
		switch {
		case a.FreeMemoryMB != b.FreeMemoryMB:
			if a.FreeMemoryMB > b.FreeMemoryMB {
				best = i
			}
		case a.ActiveJobs != b.ActiveJobs:
			if a.ActiveJobs < b.ActiveJobs {
				best = i
			}
		case a.Node < b.Node:
			best = i
		}
	}
	return best
}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// LeastLoaded picks the node hosting the fewest active jobs (ties: most
// free memory, then node name).
type LeastLoaded struct{}

// Select implements Policy.
func (LeastLoaded) Select(offers []protocol.JMOffer) int {
	best := 0
	for i := 1; i < len(offers); i++ {
		a, b := offers[i], offers[best]
		switch {
		case a.ActiveJobs != b.ActiveJobs:
			if a.ActiveJobs < b.ActiveJobs {
				best = i
			}
		case a.FreeMemoryMB != b.FreeMemoryMB:
			if a.FreeMemoryMB > b.FreeMemoryMB {
				best = i
			}
		case a.Node < b.Node:
			best = i
		}
	}
	return best
}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Random picks uniformly with a deterministic seed — the load-spreading
// baseline.
type Random struct {
	rng *rand.Rand
}

// NewRandom creates a Random policy with the given seed (0 selects 1).
func NewRandom(seed int64) *Random {
	if seed == 0 {
		seed = 1
	}
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Select implements Policy.
func (r *Random) Select(offers []protocol.JMOffer) int {
	return r.rng.Intn(len(offers))
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Options configures a discovery round.
type Options struct {
	// Window is how long to collect offers (0 = 200ms). FirstResponder
	// short-circuits on the first offer regardless.
	Window time.Duration
	// Policy selects among offers (nil = BestFit).
	Policy Policy
	// Requirements filters willing JobManagers server-side.
	Requirements protocol.JobRequirements
}

// Discover multicasts a solicitation from the client's caller and returns
// the selected JobManager offer plus all offers received (sorted by node
// for determinism, except FirstResponder which preserves arrival order).
func Discover(caller *transport.Caller, clientNode string, opts Options) (protocol.JMOffer, []protocol.JMOffer, error) {
	window := opts.Window
	if window <= 0 {
		window = 200 * time.Millisecond
	}
	policy := opts.Policy
	if policy == nil {
		policy = BestFit{}
	}
	// A member short of memory stays silent, costing the full window; the
	// round ends once every member answered, or at a first responder's offer.
	members := caller.Endpoint().GroupSize(protocol.GroupJobManagers)
	_, first := policy.(FirstResponder)
	m := protocol.Body(msg.KindJobManagerSolicit,
		msg.Address{Node: clientNode, Task: protocol.ClientTaskName},
		msg.Address{},
		opts.Requirements)
	var offers []protocol.JMOffer
	refused, answered := "", 0
	_, err := caller.Gather(protocol.GroupJobManagers, m, window, func(r *msg.Message) bool {
		answered++
		var o protocol.JMOffer
		switch err := protocol.Decode(r, &o); {
		case err != nil:
		case o.Refused != "":
			refused = o.Node + ": " + o.Refused
		default:
			offers = append(offers, o)
		}
		return (first && len(offers) > 0) || answered >= members
	})
	if err != nil {
		return protocol.JMOffer{}, nil, fmt.Errorf("discovery: %w", err)
	}
	if len(offers) == 0 {
		if refused != "" {
			return protocol.JMOffer{}, nil, fmt.Errorf("%w (%s)", ErrRefused, refused)
		}
		return protocol.JMOffer{}, nil, ErrNoOffers
	}
	if !first {
		sort.Slice(offers, func(i, j int) bool { return offers[i].Node < offers[j].Node })
	}
	chosen := policy.Select(offers)
	if chosen < 0 || chosen >= len(offers) {
		return protocol.JMOffer{}, offers, fmt.Errorf("discovery: policy %s selected invalid index %d of %d", policy.Name(), chosen, len(offers))
	}
	return offers[chosen], offers, nil
}
