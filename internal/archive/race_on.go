//go:build race

package archive

// poisonFreed makes recycle overwrite a buffer the moment it enters the free
// list, so a holder that reads after its Release reads 0xDB, not bytes that
// happen to be still right. On under the race detector — every package's
// tests then run against poisoned buffers — and off otherwise.
var poisonFreed = true
