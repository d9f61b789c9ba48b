#ifndef SIMDDB_EXEC_QUERY_H_
#define SIMDDB_EXEC_QUERY_H_

// Query entry point of the execution subsystem (src/exec/): the execution
// parameters every pipeline shares, and RunScanJoinAggregate, which runs
// the canonical scan -> bloom -> join -> group-by plan — the
// TPC-H-Q3-shaped workload the end-to-end bench and tests run across
// scalar/AVX2/AVX-512 — on the template-fused engine (exec/fused.h).
//
// The result representation is canonical (group rows in ascending key
// order with exact commutative aggregates), so a plan's QueryResult is
// byte-identical across ISAs, thread counts, chunk sizes, and scan modes —
// the property exec_test.cc checks against a hand-composed kernel
// sequence and a std::map reference.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/column.h"
#include "core/isa.h"
#include "exec/chunk.h"
#include "numa/placement.h"
#include "scan/selection_scan.h"

namespace simddb::exec {

/// Selects nothing: every plan runs on the fused engine. Kept declared
/// (with ExecConfig::pipeline_mode and QueryResult::used_fused) only for
/// the serving benchmark (perfbench/), which still names it.
enum class PipelineMode { kAuto, kDynamic, kFused };

/// How operator variants are chosen. kStatic runs cfg.isa and the plan's
/// scan mode everywhere; kAdaptive (the default) lets an AdaptiveDispatcher
/// (exec/adaptive.h) re-time the supported {scalar, AVX2, AVX-512}
/// variants on live chunks and switch to the current winner mid-query.
/// Results are byte-identical either way — variants only differ in speed.
enum class IsaMode { kStatic, kAdaptive };

/// Explore/exploit pacing for IsaMode::kAdaptive.
struct AdaptiveParams {
  /// K: timed chunks per variant per explore round. At low selectivity the
  /// post-scan batches shrink to a few tuples, so a round's fresh sample
  /// must span several chunks or timing jitter drowns the real ranking and
  /// near-tie variants flip-flop.
  uint32_t explore_chunks = 4;
  /// M: chunks (build blocks) run on the round's winner before
  /// re-exploring; the fused probe grows its exploit spans from 16
  /// chunks up to max(M, half the grid).
  uint32_t exploit_chunks = 1020;
  /// Test hook: force the exploit winner to rotate deterministically every
  /// round (round % n_variants) instead of following the timings, so tests
  /// can prove byte-identity across guaranteed mid-query switches.
  bool rotate_for_testing = false;
};

class AdaptiveDispatcher;
class AdaptiveState;

/// Per-run execution parameters, shared by every pipeline of a query.
/// The defaults serve the paper's kernels: the host's widest ISA as the
/// anchor (clamped again at plan build by EffectiveIsa), chosen per
/// pipeline by measurement. Pin `isa_mode = kStatic` to run `isa` alone.
struct ExecConfig {
  Isa isa = BestIsa();
  int threads = 1;
  /// Tuples per chunk (any value >= 1; tests sweep odd sizes).
  size_t chunk_tuples = kDefaultChunkTuples;
  /// Placement policy for breaker intermediates (materialized build sides,
  /// partition outputs). Probe-shared structures (table bank, bloom words)
  /// are always interleaved.
  numa::Placement placement = numa::Placement::kNodeLocal;
  uint64_t seed = 42;
  /// Selects nothing (see PipelineMode).
  PipelineMode pipeline_mode = PipelineMode::kAuto;
  IsaMode isa_mode = IsaMode::kAdaptive;
  AdaptiveParams adaptive;
  /// Set by RunScanJoinAggregate while isa_mode == kAdaptive; the fused
  /// probe and the build-side table insert consult it when non-null. Borrowed — owned by the query runner for the run.
  AdaptiveDispatcher* dispatcher = nullptr;
  /// Adaptive decisions that outlive the query (exec/adaptive.h): when
  /// non-null under kAdaptive, the query's dispatcher starts from this
  /// state and publishes its own decisions back when the query ends.
  /// nullptr: every query explores from scratch. Borrowed — the server's
  /// QueryScheduler owns one per bound (build, probe, storage) key.
  AdaptiveState* adaptive_state = nullptr;
};

/// How a scan represents qualifying tuples. kCompact drives the paper's
/// SelectionScan kernels (dense output); kBitmap evaluates the predicate
/// into a lane-local bitmap and gathers the qualifiers from the base
/// columns — the sel/bitmap-duality path.
enum class ScanMode { kCompact, kBitmap };

/// The scan variant an ISA maps to in the executor (store-direct family:
/// batch outputs are L1-resident, so the indirect streaming variants have
/// nothing to win).
ScanVariant ScanVariantForIsa(Isa isa);

/// The Q3-shaped plan: build relation R(pk, attr) filtered by pk in
/// [r_lo, r_hi], probe relation S(fk, val) filtered by val in [s_lo, s_hi],
/// joined on S.fk = R.pk (R keys unique), grouped by R.attr with
/// SUM/COUNT/MIN/MAX over S.val.
struct ScanJoinAggregatePlan {
  const uint32_t* r_keys = nullptr;   ///< R primary keys (unique)
  const uint32_t* r_attrs = nullptr;  ///< R group attribute column
  size_t n_r = 0;
  uint32_t r_lo = 0, r_hi = 0xFFFFFFFFu;

  const uint32_t* s_fks = nullptr;   ///< S foreign keys into R
  const uint32_t* s_vals = nullptr;  ///< S value column (filter + aggregate)
  size_t n_s = 0;
  uint32_t s_lo = 0, s_hi = 0xFFFFFFFFu;

  /// Compressed base tables (compress/column.h). Setting a side's pair
  /// replaces that side's raw pointers: the plan scans it through the
  /// scan-over-compressed source (FusedScanCompressed), the row count
  /// comes from the columns, and the result stays byte-identical to the
  /// raw-column plan. Either side may be compressed independently.
  const compress::CompressedColumn* r_keys_c = nullptr;
  const compress::CompressedColumn* r_attrs_c = nullptr;
  const compress::CompressedColumn* s_fks_c = nullptr;
  const compress::CompressedColumn* s_vals_c = nullptr;

  /// kCompact drives the SelectionScan kernels; kBitmap evaluates the
  /// predicate into bitmaps and gathers the qualifiers.
  ScanMode scan_mode = ScanMode::kCompact;
  /// 0 disables the Bloom semi-join before the probe.
  int bloom_bits_per_key = 0;
  int bloom_k = 4;
  /// Nonzero inserts a hash-partition barrier on the probe side before the
  /// join probe (exercises the partition breaker; results are unchanged).
  uint32_t partition_fanout = 0;
  size_t max_groups_hint = 1024;
};

/// Canonical query result: one row per group, ascending group key.
struct QueryResult {
  std::vector<uint32_t> group_keys;
  std::vector<uint64_t> sums;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> mins;
  std::vector<uint32_t> maxs;

  // Cardinalities for sanity checks and bench labels.
  uint64_t rows_build = 0;   ///< R rows surviving the scan (table size)
  uint64_t rows_scanned = 0; ///< S rows surviving the scan
  uint64_t rows_bloomed = 0; ///< S rows surviving the Bloom probe
  uint64_t rows_joined = 0;  ///< join matches fed to the group-by

  /// Always true: every plan runs fused (see PipelineMode).
  bool used_fused = true;
};

/// Runs the plan end to end on the shared TaskPool: the build pipeline,
/// then the probe pipeline (split at the partition barrier when the plan
/// has one). The whole-query wall time is recorded into `exec_fused_ns`.
QueryResult RunScanJoinAggregate(const ScanJoinAggregatePlan& plan,
                                 const ExecConfig& cfg);

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_QUERY_H_
