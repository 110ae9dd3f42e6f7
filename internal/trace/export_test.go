package trace

// VersionForTest exposes the serialization version to the external test
// package (which lives outside the package to break an import cycle
// through workload).
const VersionForTest = traceVersion

// RecordChunkForTest is record.Program's staging chunk, in steps; the
// chunk-boundary cases are placed around it. record's own tests pin the
// value.
const RecordChunkForTest = 4096

// DecodeChunkForTest is ReadTraceFrom's growth chunk, in events; the
// chunk-boundary and hostile-header cases are placed around it.
const DecodeChunkForTest = decodeChunk
