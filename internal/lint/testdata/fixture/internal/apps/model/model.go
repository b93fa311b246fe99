// Package model plants what each rule must flag beside what it must not.
// This comment names model.Live and model.T.Live, which exist, and
// model.Missing and model.T.Missing, which do not; model.go is a file.
package model

import "unsafe"

var mutable = unsafe.Sizeof(0)

var _ = mutable

// Live is called from cmd/use.
func Live() {}

// Dead is called only from model_test.go.
func Dead() {}

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

// String is reached through fmt.Stringer.
func (T) String() string { return "T" }
