// Package apiaudit is the fixture module's facade.
package apiaudit

import "example.com/apiaudit/internal/lib"

// Facade is called by the example alone.
func Facade() string { return lib.ViaExample() }
