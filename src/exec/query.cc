#include "exec/query.h"

#include <optional>

#include "exec/adaptive.h"
#include "exec/fused.h"
#include "obs/metrics.h"
#include "partition/parallel_partition.h"
#include "partition/partition_fn.h"

namespace simddb::exec {
namespace {

// Whole-query wall time, recorded on the submitting thread. Registry keeps
// raw pointers: static storage required.
obs::PhaseTimer g_fused_ns("exec_fused_ns");

// The partition barrier: the bloom-filtered S rows are staged at the anchor
// ISA, hash-partitioned on the fk by one morsel-parallel buffered pass
// (histogram, interleaved prefix sum, shuffle behind a PhaseBarrier), and
// re-streamed through a dense source into the join probe and group-by.
QueryResult RunPartitionedProbe(FusedProbeSpec spec, uint32_t fanout,
                                const ExecConfig& cfg) {
  FusedStaging staging;
  const LinearProbingTable* table = spec.table;
  spec.table = nullptr;
  spec.staging = &staging;
  ExecConfig pre_cfg = cfg;
  pre_cfg.dispatcher = nullptr;
  const QueryResult pre = RunFusedProbePipeline(spec, pre_cfg);

  const size_t n = staging.Compact();
  const size_t cap = ShuffleCapacity(n);
  AlignedBuffer<uint32_t> keys(cap), pays(cap);
  numa::PlaceBuffer(keys.data(), cap * sizeof(uint32_t), cfg.threads,
                    cfg.placement);
  numa::PlaceBuffer(pays.data(), cap * sizeof(uint32_t), cfg.threads,
                    cfg.placement);
  std::vector<uint32_t> starts(fanout + 1, 0);
  ParallelPartitionResources res;
  ParallelPartitionPass(PartitionFn::Hash(fanout, cfg.seed), staging.keys(),
                        staging.pays(), n, keys.data(), pays.data(), cfg.isa,
                        cfg.threads, &res, starts.data(),
                        ShuffleVariant::kAuto, cap);

  FusedProbeSpec post;
  post.keys = keys.data();
  post.pays = pays.data();
  post.n = n;
  post.dense = true;
  post.table = table;
  post.max_groups_hint = spec.max_groups_hint;
  QueryResult out = RunFusedProbePipeline(post, cfg);
  out.rows_scanned = pre.rows_scanned;
  out.rows_bloomed = pre.rows_bloomed;
  return out;
}

}  // namespace

QueryResult RunScanJoinAggregate(const ScanJoinAggregatePlan& plan,
                                 const ExecConfig& cfg) {
  obs::ScopedPhase t(g_fused_ns);
  // Plan-build sanitization: never trust the requested ISA — an unsupported
  // request degrades to the best supported backend instead of SIGILLing in
  // the first kernel (see EffectiveIsa).
  ExecConfig run_cfg = cfg;
  run_cfg.isa = EffectiveIsa(cfg.isa);
  std::optional<AdaptiveDispatcher> dispatcher;
  run_cfg.dispatcher = nullptr;
  if (run_cfg.isa_mode == IsaMode::kAdaptive) {
    run_cfg.dispatcher = &dispatcher.emplace(run_cfg, plan.scan_mode);
  }
  const FusedBuild build = RunFusedBuild(plan, run_cfg);
  const FusedProbeSpec spec = ProbeSpec(plan, build);
  QueryResult res =
      plan.partition_fanout == 0
          ? RunFusedProbePipeline(spec, run_cfg)
          : RunPartitionedProbe(spec, plan.partition_fanout, run_cfg);
  res.rows_build = build.rows;
  // Publish only completed queries: an abort unwinds past this point, and
  // a half-run schedule is not evidence worth keeping.
  if (dispatcher && run_cfg.adaptive_state != nullptr) {
    run_cfg.adaptive_state->Publish(dispatcher->Export());
  }
  return res;
}

}  // namespace simddb::exec
