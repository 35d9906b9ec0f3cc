// Package deadlib is a corpus package whose export only another package's
// non-test code uses.
package deadlib

//lint:path mndmst/internal/deadlib

// Shared is used by the good corpus, so it is not dead.
func Shared() int { return 1 }
