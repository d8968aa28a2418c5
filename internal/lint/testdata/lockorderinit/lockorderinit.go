// Package lockorderinit declares two init functions, only one of
// which takes a mutex. Every init of a package has the same symbol,
// so a summary fixpoint keyed by symbol flips between their summaries
// forever; keyed by declared function it settles, and the callee
// summaries the package's other functions need stay exact.
package lockorderinit

import "sync"

var (
	regMu  sync.Mutex
	itemMu sync.Mutex
	ready  bool
)

func init() {
	regMu.Lock()
	ready = true
	regMu.Unlock()
}

func init() {
	ready = !ready
}

func lockItem() {
	itemMu.Lock()
	itemMu.Unlock()
}

// item2reg acquires itemMu then regMu directly.
func item2reg() {
	itemMu.Lock()
	regMu.Lock() // want "closes a lock-order cycle"
	regMu.Unlock()
	itemMu.Unlock()
}

// scan closes the cycle through lockItem's acquisition summary.
func scan() {
	regMu.Lock()
	defer regMu.Unlock()
	lockItem() // want "closes a lock-order cycle"
}
