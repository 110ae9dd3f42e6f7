package trace

// VersionForTest exposes the serialization version to the external test
// package (which lives outside the package to break an import cycle
// through workload).
const VersionForTest = traceVersion

// CollectChunkForTest is the event count tests place chunk-boundary
// cases around. The countdown programs those tests build run two steps
// per event, so 2048 events fill exactly one of record.Program's
// 4096-step staging chunks.
const CollectChunkForTest = 2048
