package cpu

// MaxInlineDepth exposes the synchronous fast path's recursion bound to
// the external tests.
const MaxInlineDepth = maxInlineDepth

// QueueCap exposes a context's operation-queue capacity to the external
// tests.
const QueueCap = queueCap
