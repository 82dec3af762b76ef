//go:build !unix

package main

// maxRSSMiB returns 0 where getrusage is not available.
func maxRSSMiB() float64 { return 0 }
