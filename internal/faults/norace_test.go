//go:build !race

package faults

// raceDetector reports a binary built with -race; see race_test.go.
const raceDetector = false
