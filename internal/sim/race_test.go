//go:build race

package sim

// raceDetector reports a binary built with -race, under which sync.Pool
// drops a quarter of what is put back, so TestWorldSameStateAllocFree
// cannot count a pooled buffer's refills as zero.
const raceDetector = true
