// Package libtest is a test helper package, as net/http/httptest is.
package libtest

// Fake stands in for lib in tests.
func Fake() int { return 0 }
