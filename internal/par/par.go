// Package par runs independent steps at once and reports their outcome
// as if they had run one after another.
package par

import "sync"

// Each calls fn(i) for every i in [0, n) at once and waits for all of
// them. It returns the error of the lowest i that failed, so which error
// a caller sees never depends on which call happened to finish first.
// fn must be safe to call from several goroutines; calls that write
// results do so to slots of their own index.
func Each(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
