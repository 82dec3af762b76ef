// Command bench is a module nested in the one judged, as callers only.
package main

import "example.com/lint/internal/lib"

func main() { lib.ForBench() }
