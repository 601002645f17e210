package sched

// NewScanFirstMoverAttack and NewScanEagerWriteAttack expose the scan-based
// oracles (attack_oracle_test.go) to the external tests that run them in
// lockstep with the attacks on real protocols.
func NewScanFirstMoverAttack() Scheduler { return &scanFirstMoverAttack{} }
func NewScanEagerWriteAttack() Scheduler { return &scanEagerWriteAttack{} }
