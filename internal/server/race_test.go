//go:build race

package server

// raceEnabled reports a -race build. Its instrumentation allocates on
// its own, and sync.Pool drops a random share of the buffers put back,
// so exact allocation counts through the pool are not defined there.
const raceEnabled = true
