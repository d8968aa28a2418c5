// Package fixture exercises the poolsafe analyzer: Get/Put balance,
// checkout and put wrappers, Put-value shape, goroutine escape, and
// the per-pool reset discipline.
package fixture

import "sync"

type scratch struct {
	buf []byte
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

// balanced Gets, resets, and Puts in one function: the canonical
// cycle.
func balanced() {
	sc := pool.Get().(*scratch)
	sc.buf = sc.buf[:0]
	defer pool.Put(sc)
	use(sc)
}

// checkout returns the pooled value: its callers own the cycle, so
// the Get is released by the return.
func checkout() *scratch {
	sc := pool.Get().(*scratch)
	sc.buf = sc.buf[:0]
	return sc
}

// release is a put-wrapper: handing a pooled value to it counts as a
// Put for the caller.
func release(sc *scratch) {
	pool.Put(sc)
}

// handoff releases through the put-wrapper.
func handoff() {
	sc := checkout()
	defer release(sc)
	use(sc)
}

// dropCheckout takes a value from the checkout wrapper and drops it:
// the call counts as a Get here, and nothing releases it.
func dropCheckout() {
	sc := checkout() // want `no reachable Put`
	use(sc)
}

// putCheckout puts the checked-out value back itself.
func putCheckout() {
	sc := checkout()
	defer pool.Put(sc)
	use(sc)
}

// leak Gets and never releases on any path.
func leak() {
	sc := pool.Get().(*scratch) // want `no reachable Put`
	use(sc)
}

// discarded drops the Get result on the floor.
func discarded() {
	pool.Get() // want `discarded`
}

// escape hands the pooled value to a goroutine that may outlive the
// Put below.
func escape() {
	sc := pool.Get().(*scratch) // want `captured by a goroutine`
	go func() {
		use(sc)
	}()
	pool.Put(sc)
}

// valuePool is Put bare slices: each Put boxes the slice header into
// the pool's any, allocating on the path the pool should keep free.
// It also has no reset anywhere on its cycle.
var valuePool sync.Pool

func badShape(b []byte) {
	valuePool.Put(b) // want `non-pointer value` `ever resets`
}

func use(*scratch) {}
