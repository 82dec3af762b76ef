//go:build race

package rma

// raceDetector reports that the tests run under -race, where sync.Pool
// deliberately drops items and allocation counts mean nothing.
const raceDetector = true
