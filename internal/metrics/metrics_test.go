package metrics

import (
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 16000 {
		t.Errorf("Counter = %d, want 16000", got)
	}
}

// Summary renders one "plane:" group per run of rows sharing a plane, in
// table order, and keep drops whole planes.
func TestSummary(t *testing.T) {
	table := []CounterDef{
		{Plane: "a", Name: "x"}, {Plane: "a", Name: "y"},
		{Plane: "b", Name: "z"},
		{Plane: "c", Name: "w"},
	}
	vals := []uint64{1, 2, 3, 4}
	if got, want := Summary(table, vals, "\n", nil), "a: x=1 y=2\nb: z=3\nc: w=4"; got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
	keep := func(plane string) bool { return plane != "b" }
	if got, want := Summary(table, vals, "; ", keep), "a: x=1 y=2; c: w=4"; got != want {
		t.Errorf("Summary without plane b = %q, want %q", got, want)
	}
}
