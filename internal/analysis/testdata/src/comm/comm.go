// Package comm is a minimal stand-in for the repo's communication
// ledgers; its RecordSized calls are what the chargedsend analyzer
// accepts as a charge.
package comm

// Kind tags a ledger entry.
type Kind int

// Counter is a message/byte ledger.
type Counter struct{ msgs, bytes int64 }

// RecordSized charges n messages totalling bytes.
func (c *Counter) RecordSized(k Kind, n, bytes int64) { c.msgs += n; c.bytes += bytes }
