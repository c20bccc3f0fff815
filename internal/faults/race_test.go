//go:build race

package faults

// raceDetector reports a binary built with -race, under which
// TestAppStudySnapshotMatchesScratch skips its full-scale leg.
const raceDetector = true
