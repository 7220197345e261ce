package apiaudit_test

import (
	"fmt"

	"example.com/apiaudit"
)

func ExampleFacade() {
	fmt.Println(apiaudit.Facade())
	// Output: example
}
