// Package discovery holds the transport-free half of object identification
// (§4.2) that both arms share: the process-wide page-artifact cache (parsed
// HTML trees, CSS reference lists, inline-style asset URLs) and the
// exec-outcome cache that records what a script does and replays it. The
// simulated browser engine (internal/browser) and the TCP proxy's crawler
// (internal/parcelnet) each keep only a thin applier for recorded effects.
package discovery
