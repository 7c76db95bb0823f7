//go:build !race

package client_test

const raceEnabled = false
