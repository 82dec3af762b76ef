//go:build race

package srmcoll

// raceDetector reports that the tests run under -race, where sync.Pool
// drops items at random and allocation counts mean nothing.
const raceDetector = true
