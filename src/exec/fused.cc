// Scalar backend + runtime dispatch for the template-fused pipelines.
// The AVX2/AVX-512 instantiations live in fused_avx2.cc / fused_avx512.cc
// so their inner loops compile under the backend's ISA flags, mirroring the
// kernel TU layout (scan/selection_scan_avx2.cc etc.).

#include "exec/fused.h"

#include <algorithm>
#include <atomic>

#include "exec/adaptive.h"
#include "obs/metrics.h"

namespace simddb::exec {
namespace {

// Registry keeps raw pointers, so the counter must have static storage.
obs::Counter g_pipelines_fused("pipelines_fused");

std::unique_ptr<FusedProbeRunner> MakeRunnerForIsa(
    Isa isa, const FusedProbeSpec& spec, ScanMode mode,
    std::vector<std::unique_ptr<GroupByAggregator>>* shared) {
  switch (isa) {
    case Isa::kAvx512:
      return MakeFusedProbeRunner<Isa::kAvx512>(spec, mode, shared);
    case Isa::kAvx2:
      return MakeFusedProbeRunner<Isa::kAvx2>(spec, mode, shared);
    default:
      return MakeFusedProbeRunner<Isa::kScalar>(spec, mode, shared);
  }
}

// Adaptive routing across the per-ISA instantiations: one runner per
// (ISA, scan-mode) variant, all Prepared over the same deterministic chunk
// grid and one shared set of group-by partials. The grid is carved into
// rounds of nv explore spans (explore_chunks chunks each, timed per chunk)
// followed by one exploit span (geometrically growing), exactly like the
// chunk-paced kinds — but the whole span structure is precomputed and the
// ENTIRE grid runs in ONE morsel-parallel dispatch, the same single
// dispatch + barrier join the static fused path pays. Acquire's positional
// schedule can't express that (it hands out slots in call order), so the
// driver paces itself: explore variants come from the deterministic
// rotation (ExploreVariant), and each exploit span resolves its winner
// lazily — the first lane to touch it calls DecideAndGetWinner, deciding
// the round from whatever explore reports have landed by then. Morsel
// order is near-sequential, so in practice that is the round's own explore
// window; under heavy stealing a span may decide early from the previous
// round's decayed history, which can only cost timing, never correctness.
//
// Explore chunks are timed lane-locally with thread CPU time (a lane
// preempted mid-chunk — by a co-tenant, or by sibling lanes when threads
// oversubscribe the cores — must not charge the stall to the variant it
// happened to be running). Concurrent runners are safe because per-lane
// state is indexed by the dispatch's worker id, which each lane owns
// exclusively no matter which runner it routes a chunk to.
FusedProbeResult RunFusedProbeAdaptive(const FusedProbeSpec& spec,
                                       const ExecConfig& cfg) {
  AdaptiveDispatcher* d = cfg.dispatcher;
  const int nv = d->num_variants(OpKind::kFusedWindow);
  std::vector<std::unique_ptr<GroupByAggregator>> shared;
  std::vector<std::unique_ptr<FusedProbeRunner>> runners;
  runners.reserve(static_cast<size_t>(nv));
  for (int v = 0; v < nv; ++v) {
    const AdaptiveVariant& var = d->variant(OpKind::kFusedWindow, v);
    runners.push_back(MakeRunnerForIsa(var.isa, spec, var.scan_mode, &shared));
    runners.back()->Prepare(cfg);
  }
  const size_t total =
      spec.n == 0 ? 0 : (spec.n + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
  const int lanes = runners.empty() ? 1 : runners[0]->lanes();
  const size_t explore_w = cfg.adaptive.explore_chunks < 1
                               ? size_t{1}
                               : size_t{cfg.adaptive.explore_chunks};
  // Exploit spans grow geometrically: early (low-evidence) decisions
  // commit few chunks, later ones — backed by every prior round's decayed
  // samples — commit more. Growth does NOT reset when the winner changes:
  // the 10% hysteresis in DecideWinner already blocks noise-driven
  // switches, so a change either crosses a real margin (give the new
  // winner the big span) or oscillates between variants so close that
  // either is fine — and resetting on those oscillations is what
  // multiplies rounds and explore tax. The cap scales with the grid (half
  // of it) rather than honoring cfg.adaptive.exploit_chunks exactly, so
  // the round count stays logarithmic in the grid size. A warm key (a
  // persisted decision seeded the dispatcher) resumes at the span length
  // earlier queries grew to: its first decision already blends their
  // evidence, so it does not need the cold start's short spans.
  const size_t exploit_cap = std::max(
      cfg.adaptive.exploit_chunks < 1 ? size_t{1}
                                      : size_t{cfg.adaptive.exploit_chunks},
      total / 2);
  size_t exploit_w = std::max(
      {size_t{16}, static_cast<size_t>(lanes),
       static_cast<size_t>(d->exploit_span(OpKind::kFusedWindow))});
  exploit_w = std::min(exploit_w, exploit_cap);
  struct Span {
    int variant;     // explore: fixed by rotation; exploit: -1, lazy
    uint64_t round;  // round index (drives decay + rotate_for_testing)
    size_t begin;
    size_t end;
  };
  std::vector<Span> spans;
  {
    size_t next = 0;
    uint64_t round = 0;
    while (next < total) {
      for (int s = 0; s < nv && next < total; ++s) {
        const size_t end = std::min(total, next + explore_w);
        spans.push_back(
            {d->ExploreVariant(OpKind::kFusedWindow, round, s), round, next,
             end});
        next = end;
      }
      if (next < total) {
        const size_t end = std::min(total, next + exploit_w);
        exploit_w = std::min(exploit_w * 4, exploit_cap);
        spans.push_back({-1, round, next, end});
        next = end;
      }
      ++round;
    }
  }
  d->set_exploit_span(OpKind::kFusedWindow, exploit_w);
  // chunk -> span index, so lanes map stolen morsels in O(1); resolved[]
  // pins each exploit span to the winner the first-touching lane decided
  // (atomics live outside Span so the vector stays movable while built).
  std::vector<uint32_t> span_of(total);
  for (uint32_t si = 0; si < spans.size(); ++si) {
    for (size_t c = spans[si].begin; c < spans[si].end; ++c) {
      span_of[c] = si;
    }
  }
  std::vector<std::atomic<int>> resolved(spans.size());
  for (auto& r : resolved) r.store(-1, std::memory_order_relaxed);
  if (total > 0) {
    TaskPool::Get().ParallelFor(total, lanes, [&](int lane, size_t c) {
      const uint32_t si = span_of[c];
      const Span& sp = spans[si];
      if (sp.variant >= 0) {
        const uint64_t t0 = obs::ThreadCpuNs();
        runners[static_cast<size_t>(sp.variant)]->RunChunk(c, lane);
        d->Report(OpKind::kFusedWindow, sp.variant, obs::ThreadCpuNs() - t0,
                  1);
        d->CountExplored(1);
        d->CountChosen(OpKind::kFusedWindow, sp.variant, 1);
        return;
      }
      int var = resolved[si].load(std::memory_order_relaxed);
      if (var < 0) {
        int w = d->DecideAndGetWinner(OpKind::kFusedWindow, sp.round);
        int expected = -1;
        if (!resolved[si].compare_exchange_strong(expected, w,
                                                  std::memory_order_relaxed)) {
          w = expected;
        }
        var = w;
      }
      // Time 1 in 16 exploit chunks and fold them into the same stats.
      // Interleaved explore chunks share one core frequency, so an
      // AVX-512 frequency license drags every variant's explore sample
      // down equally and the measured ranking compresses under the
      // hysteresis band — the incumbent can anchor on a variant whose
      // homogeneous long-run throughput is far worse. Exploit spans ARE
      // the homogeneous long run, so sparse samples from them feed the
      // winner's true settled cost back into the comparison at ~0.1% of
      // the span's chunks in timer syscalls.
      if ((c & 15) == 0) {
        const uint64_t t0 = obs::ThreadCpuNs();
        runners[static_cast<size_t>(var)]->RunChunk(c, lane);
        d->Report(OpKind::kFusedWindow, var, obs::ThreadCpuNs() - t0, 1);
      } else {
        runners[static_cast<size_t>(var)]->RunChunk(c, lane);
      }
      d->CountChosen(OpKind::kFusedWindow, var, 1);
    });
  }
  FusedProbeResult res;
  for (const auto& r : runners) {
    res.rows_scanned += r->rows_scanned();
    res.rows_bloomed += r->rows_bloomed();
    res.rows_joined += r->rows_joined();
  }
  CanonicalizeGroups(cfg.isa, shared, &res.group_keys, &res.sums, &res.counts,
                     &res.mins, &res.maxs);
  return res;
}

}  // namespace

namespace detail {

void GatherPairScalar(const uint32_t* a, const uint32_t* b,
                      const uint32_t* sel, size_t cnt, uint32_t* out_a,
                      uint32_t* out_b) {
  for (size_t i = 0; i < cnt; ++i) {
    const uint32_t s = sel[i];
    out_a[i] = a[s];
    out_b[i] = b[s];
  }
}

}  // namespace detail

template FusedProbeResult RunFusedProbe<Isa::kScalar>(const FusedProbeSpec&,
                                                      const ExecConfig&);
template std::unique_ptr<FusedProbeRunner> MakeFusedProbeRunner<Isa::kScalar>(
    const FusedProbeSpec&, ScanMode,
    std::vector<std::unique_ptr<GroupByAggregator>>*);

FusedProbeResult RunFusedProbePipeline(const FusedProbeSpec& spec,
                                       const ExecConfig& cfg) {
  g_pipelines_fused.Add(1);
  if (cfg.dispatcher != nullptr) return RunFusedProbeAdaptive(spec, cfg);
  // One ISA switch per pipeline — the only dispatch the fused path pays.
  switch (cfg.isa) {
    case Isa::kAvx512:
      return RunFusedProbe<Isa::kAvx512>(spec, cfg);
    case Isa::kAvx2:
      return RunFusedProbe<Isa::kAvx2>(spec, cfg);
    default:
      return RunFusedProbe<Isa::kScalar>(spec, cfg);
  }
}

}  // namespace simddb::exec
