#include "exec/shared_scan.h"

#include <cassert>
#include <memory>

#include "exec/fused.h"
#include "obs/metrics.h"
#include "util/task_pool.h"

namespace simddb::exec {
namespace {

obs::Counter g_shared_sweeps("shared_sweeps");    // shared-scan dispatches
obs::Counter g_shared_members("shared_members");  // consumers fed by sweeps

// One member: its own build side, group-by partials, and probe runner.
struct Member {
  FusedBuild build;
  FusedPartials partials;
  std::unique_ptr<FusedProbeRunner> runner;
};

}  // namespace

bool SharedProbeSupported(const std::vector<ScanJoinAggregatePlan>& plans) {
  if (plans.empty()) return false;
  const ScanJoinAggregatePlan& first = plans.front();
  if (first.s_fks == nullptr || first.s_fks_c != nullptr) return false;
  for (const ScanJoinAggregatePlan& p : plans) {
    if (p.s_fks != first.s_fks || p.s_vals != first.s_vals ||
        p.n_s != first.n_s) {
      return false;
    }
    if (p.s_fks_c != nullptr || p.s_vals_c != nullptr) return false;
    if (p.partition_fanout != 0) return false;
  }
  return true;
}

std::vector<QueryResult> RunSharedProbe(
    const std::vector<ScanJoinAggregatePlan>& plans, const ExecConfig& cfg) {
  assert(SharedProbeSupported(plans));
  ExecConfig run_cfg = cfg;
  run_cfg.isa = EffectiveIsa(cfg.isa);
  // The sweep interleaves chunks of every member through one dispatch;
  // adaptive routing times one pipeline per chunk, so shared members
  // always run the statically-selected variants.
  run_cfg.isa_mode = IsaMode::kStatic;
  run_cfg.dispatcher = nullptr;

  // Build sides first, member by member: every table must be complete
  // before any probe chunk flows.
  std::vector<std::unique_ptr<Member>> members;
  members.reserve(plans.size());
  for (const ScanJoinAggregatePlan& plan : plans) {
    auto m = std::make_unique<Member>();
    m->build = RunFusedBuild(plan, run_cfg);
    m->runner = MakeFusedProbeRunner(run_cfg.isa, ProbeSpec(plan, m->build),
                                     plan.scan_mode, &m->partials);
    m->runner->Prepare(run_cfg);
    members.push_back(std::move(m));
  }

  // One grid for everyone: the probe relation and chunk size are shared, so
  // every member sees exactly the chunk boundaries its solo pipeline would,
  // and every runner was Prepared for the same lane count.
  const FusedProbeRunner& lead = *members.front()->runner;
  if (lead.n_chunks() > 0) {
    g_shared_sweeps.Add(1);
    g_shared_members.Add(members.size());
    TaskPool::Get().ParallelFor(
        lead.n_chunks(), lead.lanes(), [&](int lane, size_t chunk) {
          // Back-to-back members keep the chunk's base-column window
          // cache-hot: the one sweep that feeds N join steps.
          for (auto& m : members) m->runner->RunChunk(chunk, lane);
        });
  }

  std::vector<QueryResult> results(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    Member& m = *members[i];
    FinishFusedRun(run_cfg.isa, {&m.runner, 1}, &m.partials, &results[i]);
    results[i].rows_build = m.build.rows;
  }
  return results;
}

}  // namespace simddb::exec
