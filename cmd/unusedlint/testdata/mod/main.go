// Command lint is the module the unusedlint tests judge.
package main

import "example.com/lint/internal/lib"

// shape is the only way to lib.Square.Area.
type shape interface{ Area() int }

func main() {
	var s shape = lib.NewSquare(2)
	println(s.Area())
}
