package bad

//lint:path mndmst/internal/deadfix

// Unused has no caller outside its own body.
func Unused(n int) int { // want dead-code
	if n > 0 {
		return Unused(n - 1)
	}
	return 0
}

// Orphan is named only by its own methods.
type Orphan struct{ next *Orphan } // want dead-code

// Walk is a method nothing calls on a type nothing else uses.
func (o *Orphan) Walk() *Orphan { return o.next } // want dead-code

// Kept is live, but its exported method is not.
type Kept struct{ n int }

// Drop has no caller.
func (k Kept) Drop() int { return k.n } // want dead-code

// Fixture was kept for tests, but live code now calls it, so its
// justification suppresses nothing.
func Fixture() int { return 1 } /* want stale-justification */ //lint:testonly fixture for tests

func live() int { return Fixture() + Kept{}.n }
