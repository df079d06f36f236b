//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation allocates
// on its own (goroutine starts included) and so moves exact
// allocation counts.
const raceEnabled = true
