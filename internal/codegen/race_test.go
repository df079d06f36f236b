//go:build race

package codegen_test

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own, so exact allocation counts are not defined there.
const raceEnabled = true
