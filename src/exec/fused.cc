// Scalar backend, run loops, and breakers of the template-fused engine. The
// AVX2/AVX-512 instantiations live in fused_avx2.cc / fused_avx512.cc so
// their inner loops compile under the backend's ISA flags, mirroring the
// kernel TU layout (scan/selection_scan_avx2.cc etc.).

#include "exec/fused.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "exec/adaptive.h"
#include "numa/placement.h"
#include "obs/metrics.h"

namespace simddb::exec {
namespace {

// Registry keeps raw pointers, so instruments must have static storage.
obs::Counter g_pipelines_fused("pipelines_fused");
obs::Counter g_chunks_pushed("chunks_pushed");

/// Merges the lane partials (into partials[0]) and extracts the canonical
/// result rows: ascending group key, exact commutative aggregates.
void CanonicalizeGroups(Isa isa, FusedPartials& partials, QueryResult* res) {
  assert(!partials.empty());
  GroupByAggregator& total = *partials[0];
  for (size_t l = 1; l < partials.size(); ++l) total.MergeFrom(*partials[l]);
  const size_t g = total.num_groups();
  std::vector<uint32_t> k(g), cnt(g), mn(g), mx(g);
  std::vector<uint64_t> sm(g);
  total.Extract(isa, k.data(), sm.data(), cnt.data(), mn.data(), mx.data());
  // Canonical result order: ascending key. Extract order follows table
  // insertion order, which varies across thread counts and ISAs; the sort
  // restores byte-identity (keys are unique).
  std::vector<uint32_t> perm(g);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&](uint32_t a, uint32_t b) { return k[a] < k[b]; });
  res->group_keys.resize(g);
  res->sums.resize(g);
  res->counts.resize(g);
  res->mins.resize(g);
  res->maxs.resize(g);
  for (size_t i = 0; i < g; ++i) {
    res->group_keys[i] = k[perm[i]];
    res->sums[i] = sm[perm[i]];
    res->counts[i] = cnt[perm[i]];
    res->mins[i] = mn[perm[i]];
    res->maxs[i] = mx[perm[i]];
  }
}

// Adaptive routing across the per-ISA instantiations: one runner per ISA
// variant, all Prepared over the same deterministic chunk grid and one
// shared set of group-by partials. The grid is carved into rounds of nv
// explore spans (explore_chunks chunks each, timed per chunk) followed by
// one exploit span (geometrically growing). The whole span structure is
// precomputed and the ENTIRE grid runs in ONE morsel-parallel dispatch,
// the same single dispatch + barrier join a static run pays. Acquire's
// positional schedule can't express that (it hands out slots in call
// order), so the run paces itself: explore variants come from the
// deterministic rotation (ExploreVariant), and each exploit span resolves
// its winner lazily — the first lane to touch it calls
// DecideAndGetWinner, deciding the round from whatever explore reports
// have landed by then. Morsel order is near-sequential, so in practice
// that is the round's own explore window; under heavy stealing a span may
// decide early from the previous round's decayed history, which can only
// cost timing, never correctness.
//
// Explore chunks are timed lane-locally with thread CPU time (a lane
// preempted mid-chunk — by a co-tenant, or by sibling lanes when threads
// oversubscribe the cores — must not charge the stall to the variant it
// happened to be running). Concurrent runners are safe because per-lane
// state is indexed by the dispatch's worker id, which each lane owns
// exclusively no matter which runner it routes a chunk to.
void RunAdaptive(const FusedProbeSpec& spec, const ExecConfig& cfg,
                 FusedPartials* partials,
                 std::vector<std::unique_ptr<FusedProbeRunner>>* runners) {
  AdaptiveDispatcher* d = cfg.dispatcher;
  const int nv = d->num_variants(OpKind::kFusedWindow);
  for (int v = 0; v < nv; ++v) {
    const AdaptiveVariant& var = d->variant(OpKind::kFusedWindow, v);
    runners->push_back(
        MakeFusedProbeRunner(var.isa, spec, var.scan_mode, partials));
    runners->back()->Prepare(cfg);
  }
  const size_t total = (*runners)[0]->n_chunks();
  const int lanes = (*runners)[0]->lanes();
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
  if (total == 0) return;
  TaskPool::Get().ParallelFor(total, lanes, [&](int lane, size_t c) {
    const uint32_t si = span_of[c];
    const Span& sp = spans[si];
    if (sp.variant >= 0) {
      const uint64_t t0 = obs::ThreadCpuNs();
      (*runners)[static_cast<size_t>(sp.variant)]->RunChunk(c, lane);
      d->Report(OpKind::kFusedWindow, sp.variant, obs::ThreadCpuNs() - t0, 1);
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
    // Interleaved explore chunks share one core frequency, so an AVX-512
    // frequency license drags every variant's explore sample down equally
    // and the measured ranking compresses under the hysteresis band — the
    // incumbent can anchor on a variant whose homogeneous long-run
    // throughput is far worse. Exploit spans ARE the homogeneous long run,
    // so sparse samples from them feed the winner's true settled cost back
    // into the comparison at ~0.1% of the span's chunks in timer syscalls.
    FusedProbeRunner& r = *(*runners)[static_cast<size_t>(var)];
    if ((c & 15) == 0) {
      const uint64_t t0 = obs::ThreadCpuNs();
      r.RunChunk(c, lane);
      d->Report(OpKind::kFusedWindow, var, obs::ThreadCpuNs() - t0, 1);
    } else {
      r.RunChunk(c, lane);
    }
    d->CountChosen(OpKind::kFusedWindow, var, 1);
  });
}

}  // namespace

ScanVariant ScanVariantForIsa(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return ScanVariant::kVectorStoreDirect;
    case Isa::kAvx2:
      return ScanVariant::kAvx2Direct;
    default:
      return ScanVariant::kScalarBranchless;
  }
}

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

void FusedStaging::Open(const ExecConfig& cfg, size_t n) {
  slot_cap_ = cfg.chunk_tuples;
  const size_t n_chunks =
      n == 0 ? 0 : (n + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
  const size_t total = ChunkCapacity(n_chunks * slot_cap_);
  keys_.Reset(total);
  pays_.Reset(total);
  numa::PlaceBuffer(keys_.data(), total * sizeof(uint32_t), cfg.threads,
                    cfg.placement);
  numa::PlaceBuffer(pays_.data(), total * sizeof(uint32_t), cfg.threads,
                    cfg.placement);
  counts_.assign(n_chunks, 0);
}

void FusedStaging::Put(size_t chunk, const FusedBatch& b) {
  assert(chunk < counts_.size() && b.n <= slot_cap_);
  // Slots by chunk ordinal: disjoint ranges, no synchronization, and a
  // materialization order that never depends on stealing.
  std::memcpy(keys_.data() + chunk * slot_cap_, b.col[0],
              b.n * sizeof(uint32_t));
  std::memcpy(pays_.data() + chunk * slot_cap_, b.col[1],
              b.n * sizeof(uint32_t));
  counts_[chunk] = b.n;
}

size_t FusedStaging::Compact() {
  size_t out = 0;
  for (size_t m = 0; m < counts_.size(); ++m) {
    const size_t cnt = counts_[m];
    const size_t src = m * slot_cap_;
    if (cnt != 0 && out != src) {
      std::memmove(keys_.data() + out, keys_.data() + src,
                   cnt * sizeof(uint32_t));
      std::memmove(pays_.data() + out, pays_.data() + src,
                   cnt * sizeof(uint32_t));
    }
    out += cnt;
  }
  return out;
}

template std::unique_ptr<FusedProbeRunner> MakeFusedProbeRunner<Isa::kScalar>(
    const FusedProbeSpec&, ScanMode, FusedPartials*);

std::unique_ptr<FusedProbeRunner> MakeFusedProbeRunner(
    Isa isa, const FusedProbeSpec& spec, ScanMode scan_mode,
    FusedPartials* partials) {
  switch (isa) {
    case Isa::kAvx512:
      return MakeFusedProbeRunner<Isa::kAvx512>(spec, scan_mode, partials);
    case Isa::kAvx2:
      return MakeFusedProbeRunner<Isa::kAvx2>(spec, scan_mode, partials);
    default:
      return MakeFusedProbeRunner<Isa::kScalar>(spec, scan_mode, partials);
  }
}

QueryResult RunFusedProbePipeline(const FusedProbeSpec& spec,
                                  const ExecConfig& cfg) {
  g_pipelines_fused.Add(1);
  if (spec.staging != nullptr) spec.staging->Open(cfg, spec.n);
  FusedPartials partials;
  std::vector<std::unique_ptr<FusedProbeRunner>> runners;
  if (cfg.dispatcher != nullptr) {
    RunAdaptive(spec, cfg, &partials, &runners);
  } else {
    runners.push_back(
        MakeFusedProbeRunner(cfg.isa, spec, spec.scan_mode, &partials));
    FusedProbeRunner& r = *runners[0];
    r.Prepare(cfg);
    if (r.n_chunks() > 0) {
      TaskPool::Get().ParallelFor(
          r.n_chunks(), r.lanes(),
          [&r](int lane, size_t c) { r.RunChunk(c, lane); });
    }
  }
  QueryResult res;
  FinishFusedRun(cfg.isa, runners,
                 spec.staging == nullptr ? &partials : nullptr, &res);
  return res;
}

void FinishFusedRun(Isa isa,
                    std::span<const std::unique_ptr<FusedProbeRunner>> runners,
                    FusedPartials* partials, QueryResult* res) {
  uint64_t pushes = 0;
  for (const auto& r : runners) {
    const FusedCounts c = r->counts();
    res->rows_scanned += c.rows_scanned;
    res->rows_bloomed += c.rows_bloomed;
    res->rows_joined += c.rows_joined;
    pushes += c.pushes;
  }
  if (obs::MetricsEnabled()) g_chunks_pushed.AddAlways(pushes);
  if (partials != nullptr) CanonicalizeGroups(isa, *partials, res);
}

FusedBuild RunFusedBuild(const ScanJoinAggregatePlan& plan,
                         const ExecConfig& cfg) {
  FusedBuild b;
  FusedStaging& staging = b.staging;
  FusedProbeSpec spec;
  spec.keys = plan.r_keys;
  spec.pays = plan.r_attrs;
  spec.keys_c = plan.r_keys_c;
  spec.pays_c = plan.r_attrs_c;
  spec.n = plan.r_keys_c != nullptr ? plan.r_keys_c->size() : plan.n_r;
  spec.pred_col = 0;
  spec.lo = plan.r_lo;
  spec.hi = plan.r_hi;
  spec.scan_mode = plan.scan_mode;
  spec.staging = &staging;
  // The build-side scan runs the anchor ISA statically: it is one short
  // pass over the dimension table per query, which an adaptive schedule
  // would spend mostly exploring, and the build's dominant cost — the
  // scatter-heavy table insert — is re-timed per block below instead.
  ExecConfig scan_cfg = cfg;
  scan_cfg.dispatcher = nullptr;
  RunFusedProbePipeline(spec, scan_cfg);

  b.rows = staging.Compact();
  // Load factor <= 50%, and at least one empty bucket even when empty.
  size_t buckets = 16;
  while (buckets < 2 * (b.rows + 1)) buckets <<= 1;
  b.table = std::make_unique<LinearProbingTable>(buckets, cfg.seed);
  numa::PlaceBuffer(const_cast<uint32_t*>(b.table->bucket_keys()),
                    buckets * sizeof(uint32_t), cfg.threads,
                    numa::Placement::kInterleaved);
  numa::PlaceBuffer(const_cast<uint32_t*>(b.table->bucket_pays()),
                    buckets * sizeof(uint32_t), cfg.threads,
                    numa::Placement::kInterleaved);
  AdaptiveDispatcher* d = cfg.dispatcher;
  if (d == nullptr) {
    b.table->Build(cfg.isa, staging.keys(), staging.pays(), b.rows);
  } else {
    // Adaptive: the insert loop runs in chunk-sized blocks, each through
    // the kBuild schedule, so the historically slowest phase of the
    // AVX-512 anchor is re-timed instead of pinned. Blocks stay in
    // sequential order, so the insertion sequence — and therefore every
    // probe result — is unchanged by ISA switches.
    for (size_t off = 0; off < b.rows; off += cfg.chunk_tuples) {
      const size_t n = std::min(cfg.chunk_tuples, b.rows - off);
      const AdaptiveDispatcher::Ticket t = d->Acquire(OpKind::kBuild);
      const uint64_t t0 = t.explore ? obs::ThreadCpuNs() : 0;
      b.table->Build(d->variant(OpKind::kBuild, t.variant).isa,
                     staging.keys() + off, staging.pays() + off, n);
      if (t.explore) {
        d->Report(OpKind::kBuild, t.variant, obs::ThreadCpuNs() - t0, n);
      }
    }
  }
  if (plan.bloom_bits_per_key > 0 && b.rows > 0) {
    b.bloom = std::make_unique<BloomFilter>(BloomFilter::ForItems(
        b.rows, plan.bloom_bits_per_key, plan.bloom_k, cfg.seed));
    numa::PlaceBuffer(const_cast<uint32_t*>(b.bloom->words()),
                      b.bloom->n_bits() / 8, cfg.threads,
                      numa::Placement::kInterleaved);
    b.bloom->Add(staging.keys(), b.rows);
  }
  return b;
}

FusedProbeSpec ProbeSpec(const ScanJoinAggregatePlan& plan,
                         const FusedBuild& build) {
  FusedProbeSpec spec;
  spec.keys = plan.s_fks;
  spec.pays = plan.s_vals;
  spec.keys_c = plan.s_fks_c;
  spec.pays_c = plan.s_vals_c;
  spec.n = plan.s_fks_c != nullptr ? plan.s_fks_c->size() : plan.n_s;
  spec.lo = plan.s_lo;
  spec.hi = plan.s_hi;
  spec.scan_mode = plan.scan_mode;
  spec.bloom = build.bloom.get();
  spec.table = build.table.get();
  spec.max_groups_hint = plan.max_groups_hint;
  return spec;
}

}  // namespace simddb::exec
