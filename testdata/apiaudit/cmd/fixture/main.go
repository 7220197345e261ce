// Command fixture is the caller TestAPIAuditFixture's planted names have.
package main

import (
	"fmt"

	"example.com/apiaudit/internal/lib"
)

func main() {
	var c lib.Config
	fmt.Println(c.Sum(), lib.Used())
}
