// Command use is the fixture's caller.
package main

import (
	"fmt"

	"fixture/internal/apps/model"
)

func main() {
	model.Live()
	model.T{}.Live()
	model.Cfg{Set: 1}.Sum()
	fmt.Println(model.T{})
}
