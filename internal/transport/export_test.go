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
