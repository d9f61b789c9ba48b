#ifndef SIMDDB_EXEC_SHARED_SCAN_H_
#define SIMDDB_EXEC_SHARED_SCAN_H_

// Shared scans: one sweep over a hot base table feeds N concurrent
// consumers' probe pipelines.
//
// When N sessions scan the same probe relation, running N independent
// pipelines pulls the base columns through memory N times. RunSharedProbe
// instead drives ONE deterministic chunk grid over the shared columns and,
// per chunk, runs every member's fused probe runner (exec/fused.h) back to
// back — the first member's scan pulls the chunk into cache, the remaining
// members' scans (and predicates) hit L1/L2. Every member keeps its own
// pipeline (scan -> [bloom] -> join probe -> group-by) and its own build
// side, so each member's QueryResult is byte-identical to running its plan
// alone: sharing changes memory traffic and dispatch count (one grid for N
// members), never results.

#include <vector>

#include "exec/query.h"

namespace simddb::exec {

/// True when every plan can join a shared sweep: identical raw probe-side
/// base columns (same pointers and row count — catalog tables guarantee
/// this), uncompressed, and no probe-side partition barrier. Build sides
/// and predicates may differ freely.
bool SharedProbeSupported(const std::vector<ScanJoinAggregatePlan>& plans);

/// Runs all plans with one probe-relation sweep (see file comment).
/// Precondition: SharedProbeSupported(plans). Build pipelines run first,
/// member by member; then a single TaskPool dispatch walks the common chunk
/// grid, running each chunk through every member's pipeline. Results are
/// returned in plan order and are byte-identical to per-plan
/// RunScanJoinAggregate.
std::vector<QueryResult> RunSharedProbe(
    const std::vector<ScanJoinAggregatePlan>& plans, const ExecConfig& cfg);

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_SHARED_SCAN_H_
