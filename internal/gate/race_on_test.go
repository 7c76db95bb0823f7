//go:build race

package gate

// raceEnabled reports a -race build: the detector's shadow memory and
// its random sync.Pool drops make allocation budgets meaningless.
const raceEnabled = true
