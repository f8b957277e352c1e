//go:build race

package filter

func init() { raceEnabled = true }
