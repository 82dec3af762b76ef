//go:build !race

package srmcoll

const raceDetector = false
