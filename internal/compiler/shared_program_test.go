package compiler

import (
	"context"
	"sync"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/workloads"
)

// TestConcurrentCompilesShareOneProgram compiles one program from several
// goroutines at once. Compiling must only read the program: under
// -race, any write to it fails this test, as Finalize's assignment of every
// controller's Depth once did. Every compile must also map it the same way.
func TestConcurrentCompilesShareOneProgram(t *testing.T) {
	p, err := workloads.NewInnerProduct().Program()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Params: arch.Default()}
	want, err := CompileOpts(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := CompileOpts(context.Background(), p, opts)
			if errs[i] = err; err == nil {
				got[i] = m.Summary()
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		if got[i] != want.Summary() {
			t.Errorf("compile %d maps the program differently:\n%s\nwant\n%s", i, got[i], want.Summary())
		}
	}
}
