//go:build race

package client_test

// raceEnabled reports a -race build: the detector's shadow memory and
// its random sync.Pool drops make allocation budgets meaningless.
const raceEnabled = true
