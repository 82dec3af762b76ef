//go:build !race

package scale

const raceDetector = false
