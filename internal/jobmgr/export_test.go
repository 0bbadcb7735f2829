package jobmgr

// TableSizes reports how many records the live table and the tombstone
// index hold.
func (jm *JobManager) TableSizes() (live, retired int) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return len(jm.jobs), len(jm.tombs)
}

// CheckpointNow runs one checkpoint round, as the ticker would.
func (jm *JobManager) CheckpointNow() { jm.checkpointAll() }

// PeerCheckpoints counts the peer job images this manager holds.
func (jm *JobManager) PeerCheckpoints() int {
	jm.peerMu.Lock()
	defer jm.peerMu.Unlock()
	n := 0
	for _, byJob := range jm.peerCkpts {
		n += len(byJob)
	}
	return n
}
