//go:build !race

package keystream

const raceEnabled = false
