//go:build !race

package serve

// Test scaling without the race detector: full-size soak and a slow
// request long enough (~1s) to be reliably in flight while admission
// is probed.
const (
	slowRequestN  = 10000 // compute units of the deterministic slow request
	soakClients   = 8
	soakRequests  = 60 // per client
	soakSwaps     = 25
	epochClients  = 4
	epochRequests = 500
)
