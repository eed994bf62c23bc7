package lint

import (
	"sort"
	"strings"
)

// Fact is one bit of a function summary. Facts are computed bottom-up
// over the whole-repo call graph (see summary.go): a function carries a
// fact either because its own body exhibits it or because a callee
// does, so analyzers can ask "does anything this call reaches do X"
// without walking bodies themselves.
type Fact uint16

const (
	// FactReadsClock: the function (or a callee) reads the wall clock
	// via time.Now/Since/Until. internal/obs is exempt — it is the
	// sanctioned observability boundary, proven side-effect-free for
	// decisions by core's obs-equivalence tests.
	FactReadsClock Fact = 1 << iota
	// FactReadsGlobalRand: the function (or a callee) draws from the
	// unseeded global math/rand source.
	FactReadsGlobalRand
	// FactForwardsPersistError: the function returns an error that may
	// originate from a persist-family call (Save/Load/Encode/Close/…),
	// directly or through callees that themselves forward one.
	FactForwardsPersistError
	// FactCallsBareContext: the function (or a callee) mints a context
	// via context.Background or context.TODO.
	FactCallsBareContext
	// FactAcquiresLock: the function (or a callee) calls Lock/RLock on
	// a sync.Mutex or sync.RWMutex.
	FactAcquiresLock
	// FactReceivesContext: the function's own signature accepts a
	// context.Context parameter (not propagated).
	FactReceivesContext
)

// propagatedFacts flow from callee to caller unconditionally.
// FactForwardsPersistError propagates only into callers that return an
// error themselves; FactReceivesContext never propagates.
const propagatedFacts = FactReadsClock | FactReadsGlobalRand |
	FactCallsBareContext | FactAcquiresLock

var factNames = []struct {
	f    Fact
	name string
}{
	{FactReadsClock, "reads-clock"},
	{FactReadsGlobalRand, "reads-global-rand"},
	{FactForwardsPersistError, "forwards-persist-error"},
	{FactCallsBareContext, "calls-bare-context"},
	{FactAcquiresLock, "acquires-lock"},
	{FactReceivesContext, "receives-context"},
}

func (f Fact) String() string {
	var parts []string
	for _, fn := range factNames {
		if f&fn.f != 0 {
			parts = append(parts, fn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// funcNode is one function's entry in the fact store: its canonical ID,
// defining package (external-test suffix trimmed), summary facts, and
// static call edges into other module functions.
type funcNode struct {
	id           string
	pkg          string
	facts        Fact
	returnsError bool
	callees      []string
}

// Facts is the whole-repo fact store: per-function summaries keyed by
// canonical function ID (see FuncID), built by ComputeFacts over every
// loaded package and queried by the interprocedural analyzers. A nil
// *Facts degrades every query to "no facts", so analyzers fall back to
// their intraprocedural rules when run over a single package.
type Facts struct {
	funcs map[string]*funcNode
}

// TaintedBy returns the full fact set of the function with the given
// ID (zero when unknown or on a nil store).
func (f *Facts) TaintedBy(id string) Fact {
	if f == nil {
		return 0
	}
	if n := f.funcs[id]; n != nil {
		return n.facts
	}
	return 0
}

// Has reports whether the function carries every fact in want.
func (f *Facts) Has(id string, want Fact) bool {
	return f.TaintedBy(id)&want == want
}

// Callees returns the function's static call edges into other module
// functions, sorted (nil when unknown).
func (f *Facts) Callees(id string) []string {
	if f == nil {
		return nil
	}
	if n := f.funcs[id]; n != nil {
		return n.callees
	}
	return nil
}

// PkgOf returns the base package path (external-test suffix trimmed)
// the function is defined in ("" when unknown).
func (f *Facts) PkgOf(id string) string {
	if f == nil {
		return ""
	}
	if n := f.funcs[id]; n != nil {
		return n.pkg
	}
	return ""
}

// FuncIDs returns every known function ID in sorted order (for the
// driver's -facts dump).
func (f *Facts) FuncIDs() []string {
	if f == nil {
		return nil
	}
	ids := make([]string, 0, len(f.funcs))
	for id := range f.funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
