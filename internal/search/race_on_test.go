//go:build race

package search_test

// raceBuild reports whether the tests run under the race detector.
const raceBuild = true
