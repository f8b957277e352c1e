//go:build race

package transport

func init() { raceEnabled = true }
