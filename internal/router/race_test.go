//go:build race

package router

// raceEnabled reports a build with the race detector.
const raceEnabled = true
