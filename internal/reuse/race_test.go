//go:build race

package reuse

func init() { raceEnabled = true }
