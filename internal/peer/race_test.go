//go:build race

package peer

func init() { raceEnabled = true }
