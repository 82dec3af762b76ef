// Package lib holds the exported names the unusedlint tests plant.
package lib

// Unused is called by nothing outside tests: reported.
func Unused() {}

// ForBench is called only from the nested bench module: not reported.
func ForBench() {}

// Square is a shape.
type Square struct{ side int }

// Area is called only through an interface of another package: not
// reported.
func (s Square) Area() int { return s.side * s.side }

// NewSquare returns a square.
func NewSquare(side int) Square { return Square{side} }
