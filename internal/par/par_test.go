package par

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Every call is in flight before any returns: a call that waits for
// all the others would otherwise never finish.
func TestEachRunsEveryCallAtOnce(t *testing.T) {
	const n = 4
	var arrived sync.WaitGroup
	arrived.Add(n)
	got := make([]int, n)
	err := Each(n, func(i int) error {
		arrived.Done()
		arrived.Wait()
		got[i] = i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("slot %d = %d", i, v)
		}
	}
}

// The lowest failing index decides the error, whatever order the calls
// finish in: index 3 fails first, index 1 last.
func TestEachReportsLowestFailure(t *testing.T) {
	done := make([]chan struct{}, 4)
	for i := range done {
		done[i] = make(chan struct{})
	}
	err := Each(4, func(i int) error {
		if i+1 < len(done) {
			<-done[i+1]
		}
		defer close(done[i])
		if i == 1 || i == 3 {
			return fmt.Errorf("step %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "step 1" {
		t.Errorf("err = %v, want step 1", err)
	}
}

func TestEachEdges(t *testing.T) {
	if err := Each(0, func(int) error { return errors.New("called") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	want := errors.New("only")
	if err := Each(1, func(int) error { return want }); !errors.Is(err, want) {
		t.Errorf("n=1: %v", err)
	}
}
