package model

import "testing"

func TestDead(t *testing.T) {
	Dead()
	T{}.Dead()
	dead()
	T{}.dead()
	_ = Cfg{TestOnly: 1}
}
