package tuplespace

// spare returns the stored tuples and the registered waiters in the slots
// past each slice's length: what the backing arrays still point at without
// the space holding it.
func (s *Space) spare() (tuples []Tuple, waiters []*Waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.buckets {
		for _, e := range b.q[len(b.q):cap(b.q)] {
			tuples = append(tuples, e.t)
		}
	}
	return tuples, s.waiters[len(s.waiters):cap(s.waiters)]
}

// bucketKeys returns the key of every bucket the space holds.
func (s *Space) bucketKeys() []bucketKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]bucketKey, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	return keys
}
