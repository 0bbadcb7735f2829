package xmi

// Check is the referential-integrity check Parse ends with, for the oracle
// the differential test compares Parse against.
func (d *Document) Check() error { return d.check() }
