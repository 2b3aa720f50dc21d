//go:build race

package main

// The race detector's shadow memory swamps the few MiB the RSS test compares.
const raceEnabled = true
