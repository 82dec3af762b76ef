//go:build !race

package rma

const raceDetector = false
