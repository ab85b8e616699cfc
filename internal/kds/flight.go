package kds

import (
	"errors"
	"sync"
)

// errFlightPanicked is returned to waiting callers when the leader's fn
// panicked: the panic propagates on the leader's goroutine, while
// followers fail cleanly and the key is released for retry.
var errFlightPanicked = errors.New("kds: in-flight call panicked")

// call tracks one in-flight execution.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// flight suppresses duplicate concurrent calls per key, so N verifiers
// racing on a cold cache issue one KDS round trip instead of N. Unlike a
// cache it holds a result only while the call is in flight: once the
// leader returns the key is forgotten, so a failure is retried by the
// next caller and never served twice. The zero value is ready to use; a
// flight must not be copied after first use.
type flight[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Do executes fn, ensuring at most one execution per key is in flight at
// a time. Concurrent callers with the same key wait for the leader and
// receive its result; shared reports whether this caller got a result
// produced by another goroutine. Once the leader returns, the key is
// released — sequential calls each execute fn.
func (g *flight[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := new(call[V])
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// Release the key and the waiters even if fn panics — otherwise the
	// key would be wedged forever. The panic itself propagates on this
	// goroutine; waiters see errFlightPanicked (c.err is only overwritten once
	// fn returns normally).
	c.err = errFlightPanicked
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
