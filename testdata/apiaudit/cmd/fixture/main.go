// Command fixture is the program TestAPIAuditFixture's planted names reach.
package main

import (
	"fmt"

	"example.com/apiaudit/internal/lib"
	"example.com/apiaudit/internal/libtest"
)

func main() {
	var c lib.Config
	fmt.Println(c, c.Sum(), lib.Used(), libtest.Fake())
}
