// Package testutil holds shared test plumbing. Its centerpiece is the
// seed override: every randomized test in the repository draws its seed
// through Seed (or the Rand/Quick conveniences), so setting
//
//	MNDMST_TEST_SEED=<int64> go test ./...
//
// replays the exact random schedule of a logged failure. Each test logs
// the seed it ran under, making every randomized failure reproducible
// from its log line alone.
package testutil

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// SeedEnv is the environment variable that overrides every randomized
// test's seed.
const SeedEnv = "MNDMST_TEST_SEED"

// Seed returns the seed a randomized test must use: the decimal int64 in
// MNDMST_TEST_SEED when set, otherwise def. The chosen seed is logged so
// a failing run's output always carries its replay command.
func Seed(t testing.TB, def int64) int64 {
	t.Helper()
	seed := def
	if v := os.Getenv(SeedEnv); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("testutil: %s=%q is not an int64: %v", SeedEnv, v, err)
		}
		seed = n
	}
	t.Logf("testutil: seed %d (replay with %s=%d)", seed, SeedEnv, seed)
	return seed
}

// Rand returns a rand.Rand seeded through Seed.
func Rand(t testing.TB, def int64) *rand.Rand {
	t.Helper()
	return rand.New(rand.NewSource(Seed(t, def)))
}

// Quick returns a testing/quick config whose generator runs on a seed
// drawn through Seed, so property-test counterexamples replay too.
// maxCount <= 0 keeps quick's default iteration count.
func Quick(t testing.TB, def int64, maxCount int) *quick.Config { //lint:testonly quick.Config for property tests
	t.Helper()
	return &quick.Config{MaxCount: maxCount, Rand: Rand(t, def)}
}
