// Command user imports the deadcode corpus library by module path.
package main

import "roadtrojan/internal/analysis/testdata/deadcode/lib"

func main() {
	lib.Drain(lib.NewSink())
	_ = lib.Exported() + lib.Box[int]{}.Get() + int(lib.KindA)
}
