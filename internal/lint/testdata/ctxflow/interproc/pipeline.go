// A wrapper in internal/core that mints a bare context: callers on the
// serving tier that hold a context and call it are flagged through the
// calls-bare-context summary.
//
//fixture:file internal/core/pipeline.go
package core

import "context"

type Pipeline struct{}

// Kick runs detached work on a fresh background context. It does not
// accept a context, so only the fact store can tell callers it
// re-mints one.
func (p *Pipeline) Kick() {
	p.kickWith(context.Background())
}

func (p *Pipeline) kickWith(ctx context.Context) { _ = ctx }
