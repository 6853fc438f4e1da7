//go:build race

package serve

// Race-trimmed test scaling: the detector slows execution ~10x, so the
// soak and the deterministic slow request shrink to keep `make race`
// fast while still crossing every swap/drain interleaving.
const (
	slowRequestN  = 1500
	soakClients   = 4
	soakRequests  = 15
	soakSwaps     = 8
	epochClients  = 4
	epochRequests = 100
)
