package cpu

// QueueCap exposes a context's operation-queue capacity to the external
// tests.
const QueueCap = queueCap
