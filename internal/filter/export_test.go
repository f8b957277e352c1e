package filter

// RaceEnabled reports whether the tests run under the race detector.
func RaceEnabled() bool { return raceEnabled }
