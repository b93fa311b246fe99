package model

import "testing"

func TestDead(t *testing.T) {
	Dead()
	T{}.Dead()
}
