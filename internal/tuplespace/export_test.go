package tuplespace

// spare returns the stored tuples and the registered waiters in the slots
// past each slice's length: what the backing arrays still point at without
// the space holding it.
func (s *Space) spare() (tuples []Tuple, waiters []*Waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tuples[len(s.tuples):cap(s.tuples)], s.waiters[len(s.waiters):cap(s.waiters)]
}
