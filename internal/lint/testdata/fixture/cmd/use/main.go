// Command use is the fixture's caller.
package main

import (
	"fmt"

	"fixture/internal/apps/model"
)

func main() {
	model.Live()
	model.T{}.Live()
	fmt.Println(model.T{})
}
