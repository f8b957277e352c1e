//go:build race

package kadop

func init() { raceEnabled = true }
