//go:build race

package transport

// raceEnabled reports a -race build: the detector's shadow memory makes
// allocation budgets meaningless.
const raceEnabled = true
