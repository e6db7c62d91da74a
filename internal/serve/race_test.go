//go:build race

package serve

// raceEnabled reports a -race build, whose detector adds allocations of its
// own to every request.
const raceEnabled = true
