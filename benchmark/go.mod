// The benchmark is a module of its own so that it builds from this directory
// alone (plus the program under test, one level up) and stays out of the
// root module's ./... patterns; its import path keeps it inside failtrans/,
// which is what lets it import failtrans/internal/...
module failtrans/benchmark

go 1.22

require failtrans v0.0.0

replace failtrans => ../
