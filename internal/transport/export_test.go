package transport

import "testing"

// TightenControlLane caps every pipeline's control lane at frames for the
// rest of the test — for tests in other packages that must see a frame
// shed; call it before any endpoint sends.
func TightenControlLane(t testing.TB, frames int) {
	old := pipeControlCap
	pipeControlCap = frames
	t.Cleanup(func() { pipeControlCap = old })
}

// Dials counts a TCP fabric's open connections per ordered node pair:
// Dials(n)[[2]string{a, b}] is how many open sockets a dialed to b. A
// socket is counted at the end that dialed it, the one whose remote address
// is a node's listener.
func Dials(n *TCPNetwork) map[[2]string]int {
	n.mu.RLock()
	byAddr := make(map[string]string, len(n.addrs))
	for node, addr := range n.addrs {
		byAddr[addr] = node
	}
	eps := make([]*tcpEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.RUnlock()
	dials := map[[2]string]int{}
	for _, ep := range eps {
		ep.mu.Lock()
		for c := range ep.socks {
			if peer, ok := byAddr[c.RemoteAddr().String()]; ok {
				dials[[2]string{ep.node, peer}]++
			}
		}
		ep.mu.Unlock()
	}
	return dials
}
