package archive

// PoisonFreed turns poison-on-free on for this package's tests (it is on by
// itself under the race detector) and returns the switch back.
func PoisonFreed() (restore func()) {
	old := poisonFreed
	poisonFreed = true
	return func() { poisonFreed = old }
}

// ClassSize exposes the buffer class rule.
func ClassSize(n int) int { return classSize(n) }

const (
	MinReuseBytes = minReuseBytes
	DigestPiece   = digestPiece
	MaxFreeShare  = maxFreeShare
)
