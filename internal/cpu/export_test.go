package cpu

// MaxInlineDepth exposes the synchronous fast path's recursion bound to
// the external tests.
const MaxInlineDepth = maxInlineDepth
