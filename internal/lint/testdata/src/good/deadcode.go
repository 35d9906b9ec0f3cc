package good

//lint:path mndmst/internal/deadfix

import (
	"fmt"

	"mndmst/internal/lint/testdata/src/deadlib"
)

// Source is a module interface; Chunk's Next is reached only through it.
type Source interface{ Next() int }

// Chunk is live: drain builds one.
type Chunk struct{ n int }

// Next implements Source.
func (c *Chunk) Next() int { return c.n }

// Transient implements the anonymous interface drain asserts.
func (c *Chunk) Transient() bool { return c.n < 0 }

// Error implements error.
func (c *Chunk) Error() string { return "chunk" }

// String implements fmt.Stringer.
func (c *Chunk) String() string { return fmt.Sprint(c.n) }

// NewFixture is a fixture generator kept for tests on purpose.
func NewFixture() *Chunk { return &Chunk{n: 1} } //lint:testonly fixture generator for tests

func drain(s Source) bool {
	var x interface{} = &Chunk{n: deadlib.Shared() + s.Next()}
	t, ok := x.(interface{ Transient() bool })
	return ok && t.Transient()
}
