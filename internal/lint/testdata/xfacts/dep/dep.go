// Package dep is the dependency half of the cross-package facts
// fixture. Its import path is NOT in any analyzer's reporting scope,
// so this file must stay silent — but the pass still exports a fact:
// Watch's ctx-bounded summary, which the sibling client package
// consumes.
package dep

import "context"

// Watch bounds its own lifetime on ctx: launching it as a goroutine
// is launching something that dies with its context.
func Watch(ctx context.Context) {
	<-ctx.Done()
}

// Spin takes a context and ignores it; no fact is exported, so a
// launch of Spin proves nothing.
func Spin(ctx context.Context) {
	for {
		_ = ctx
	}
}
