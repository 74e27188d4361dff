package stream_test

import (
	"fmt"

	"dpc/internal/metric"
	"dpc/internal/stream"
)

// ExampleNew summarizes a long stream in bounded memory.
func ExampleNew() {
	sk, err := stream.New(stream.Config{K: 2, T: 4, Chunk: 64})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10000; i++ {
		x := float64(i % 2 * 100) // two clusters at 0 and 100
		sk.Add(metric.Point{x, float64(i % 7)})
	}
	res := sk.Finish()
	fmt.Println("summary bounded:", sk.Size() <= 64)
	fmt.Println("centers:", len(res.Centers))
	// Output:
	// summary bounded: true
	// centers: 2
}
