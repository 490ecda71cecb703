//go:build race

package transport

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a quarter of its Puts at random, so a pin on pooled allocation
// measures the detector there, not the program.
const raceEnabled = true
