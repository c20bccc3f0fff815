//go:build !race

package sim

// raceDetector reports a binary built with -race; see race_test.go.
const raceDetector = false
