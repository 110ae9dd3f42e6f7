package trace

// VersionForTest exposes the serialization version to the external test
// package (which lives outside the package to break an import cycle
// through workload).
const VersionForTest = traceVersion

// CollectChunkForTest exposes Collect's staging-chunk size so tests can
// place event counts on either side of a chunk boundary.
const CollectChunkForTest = collectChunk
