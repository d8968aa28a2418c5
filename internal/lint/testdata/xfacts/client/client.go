// Package client is the consumer half of the cross-package facts
// fixture: its judgement depends on the fact the dep package exported
// — goroutineleak's ctx-bounded summary — not on anything visible in
// this file alone.
package client

import (
	"context"

	"sortnets/testdata/xfacts/dep"
)

// launch gets dep.Watch for free (its fact says ctx-bounded) and must
// still flag dep.Spin, whose body this package cannot see and whose
// fact does not exist.
func launch(ctx context.Context) {
	go dep.Watch(ctx)
	go dep.Spin(ctx) // want "goroutine has no provable join"
}
