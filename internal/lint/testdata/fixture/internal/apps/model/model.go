// Package model plants what each rule must flag beside what it must not.
// This comment names model.Live and model.T.Live, which exist, and
// model.Missing and model.T.Missing, which do not; model.go is a file.
package model

import "unsafe"

var mutable = unsafe.Sizeof(0)

var _ = mutable

// Live is called from cmd/use.
func Live() { bump(&counter{}, pair{}) }

// Dead is called only from model_test.go.
func Dead() {}

// live is called from Cfg.Sum.
func live() {}

// dead is called only from model_test.go.
func dead() {}

// OnlySelf is called only from its own body.
func OnlySelf(n int) {
	if n > 0 {
		OnlySelf(n - 1)
	}
}

// T is used from cmd/use.
type T struct{}

// Live is called from cmd/use.
func (T) Live() {}

// Dead is called only from model_test.go.
func (T) Dead() {}

// dead is called only from model_test.go.
func (T) dead() {}

// String is reached through fmt.Stringer.
func (T) String() string { return "T" }

// Cfg plants the testOnlyKnobs cases.
type Cfg struct {
	Set      int    // set from cmd/use
	Indexed  [1]int // set through an index expression
	Zero     int    // only defaulted inside if c.Zero == 0
	Positive int    // only defaulted inside if c.Positive <= 0
	Hook     func() // only defaulted inside if c.Hook == nil
	TestOnly int    // set only from model_test.go
}

// Sum is called from cmd/use.
func (c Cfg) Sum() int {
	if c.Zero == 0 {
		c.Zero = 1
	}
	if c.Positive <= 0 {
		c.Positive = 1
	}
	if c.Hook == nil {
		c.Hook = live
	}
	c.Hook()
	c.Indexed[0] = c.Set + c.Zero + c.Positive + c.TestOnly
	return c.Indexed[0]
}

// counter plants the writeOnlyFields cases.
type counter struct {
	n      int // incremented, never read
	seen   int // written and read
	Tagged int `json:"tagged"` // written; an encoder reads it
}

// pair's fields are read only by comparing pairs whole.
type pair struct{ a, b int }

func bump(c *counter, p pair) bool {
	c.n++
	c.seen = c.seen + 1
	c.Tagged = 1
	return p == pair{1, 2}
}
