//go:build !race

package archive

// poisonFreed: see race_on.go. This package's own tests turn it on.
var poisonFreed = false
