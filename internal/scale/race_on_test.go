//go:build race

package scale

// raceDetector reports that the tests run under -race. The allocation guards
// skip there: their counts hold under it too, but it slows them down (core's to
// about a minute), and CI's plain allocation step runs them.
const raceDetector = true
