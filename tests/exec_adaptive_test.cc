// Micro-adaptive operator selection tests (src/exec/adaptive.h): the
// adaptive dispatcher must be invisible in results — byte-identical
// QueryResult against the static executor and the scalar std::map reference
// across ISA anchors x threads {1, 8} x chunk {257, 1024} x scan mode x
// edge input sizes, under a seeded rotate-for-testing schedule that
// provably switches the winner mid-query inside a morsel-parallel grid. Also covered: the explore/exploit schedule itself,
// the adaptive observability counters, static mode keeping them at zero,
// the ISA capability degrade path (SetCpuCapsForTesting) that turns an
// unsupported Isa::kAvx512 request into the best supported backend instead
// of a SIGILL, and decisions persisted across queries (AdaptiveState):
// seed/publish round trips, warm queries exploring less, and results that
// stay identical to the std::map reference throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/isa.h"
#include "exec/adaptive.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "util/aligned_buffer.h"
#include "util/cpu_info.h"
#include "util/data_gen.h"

namespace simddb {
namespace {

using exec::AdaptiveDecisions;
using exec::AdaptiveDispatcher;
using exec::AdaptiveState;
using exec::ExecConfig;
using exec::IsaMode;
using exec::OpKind;
using exec::QueryResult;
using exec::ScanJoinAggregatePlan;
using exec::ScanMode;

uint64_t Metric(const char* name) {
  for (const obs::MetricSample& s : obs::MetricsRegistry::Get().Snapshot()) {
    if (std::strcmp(s.name, name) == 0) return s.value;
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return 0;
}

struct ScopedMetrics {
  ScopedMetrics() {
    obs::EnableMetrics(true);
    obs::MetricsRegistry::Get().ResetAll();
  }
  ~ScopedMetrics() { obs::EnableMetrics(false); }
};

struct QueryData {
  AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals;
  size_t n_r = 0, n_s = 0;

  QueryData(size_t nr, size_t ns) : n_r(nr), n_s(ns) {
    r_keys.Reset(nr + 16);
    r_attrs.Reset(nr + 16);
    s_fks.Reset(ns + 16);
    s_vals.Reset(ns + 16);
    FillSequential(r_keys.data(), nr, 1);
    FillUniform(r_attrs.data(), nr, 5, 1, 64);
    FillUniform(s_fks.data(), ns, 6, 1,
                nr == 0 ? 1 : static_cast<uint32_t>(nr));
    FillUniform(s_vals.data(), ns, 7, 0, 999'999);
  }

  ScanJoinAggregatePlan Plan() const {
    ScanJoinAggregatePlan p;
    p.r_keys = r_keys.data();
    p.r_attrs = r_attrs.data();
    p.n_r = n_r;
    p.r_lo = 1;
    p.r_hi = n_r == 0 ? 1 : static_cast<uint32_t>((3 * n_r) / 4);
    p.s_fks = s_fks.data();
    p.s_vals = s_vals.data();
    p.n_s = n_s;
    p.s_lo = 0;
    p.s_hi = 399'999;  // ~40% of S: plenty of qualifiers per chunk
    p.bloom_bits_per_key = 10;
    p.max_groups_hint = 128;
    return p;
  }
};

struct RefRow {
  uint64_t sum = 0;
  uint32_t count = 0;
  uint32_t min = 0xFFFFFFFFu;
  uint32_t max = 0;
};

/// Scalar std::map reference, independent of every library kernel.
std::map<uint32_t, RefRow> MapReference(const QueryData& d,
                                        const ScanJoinAggregatePlan& p) {
  std::map<uint32_t, uint32_t> r;
  for (size_t i = 0; i < d.n_r; ++i) {
    if (d.r_keys[i] >= p.r_lo && d.r_keys[i] <= p.r_hi) {
      r[d.r_keys[i]] = d.r_attrs[i];
    }
  }
  std::map<uint32_t, RefRow> groups;
  for (size_t i = 0; i < d.n_s; ++i) {
    if (d.s_vals[i] < p.s_lo || d.s_vals[i] > p.s_hi) continue;
    auto it = r.find(d.s_fks[i]);
    if (it == r.end()) continue;
    RefRow& g = groups[it->second];
    g.sum += d.s_vals[i];
    g.count += 1;
    g.min = std::min(g.min, d.s_vals[i]);
    g.max = std::max(g.max, d.s_vals[i]);
  }
  return groups;
}

void ExpectMatchesReference(const QueryResult& got,
                            const std::map<uint32_t, RefRow>& want,
                            const std::string& label) {
  ASSERT_EQ(got.group_keys.size(), want.size()) << label;
  size_t i = 0;
  for (const auto& [key, row] : want) {
    ASSERT_EQ(got.group_keys[i], key) << label << " @" << i;
    ASSERT_EQ(got.sums[i], row.sum) << label << " key " << key;
    ASSERT_EQ(got.counts[i], row.count) << label << " key " << key;
    ASSERT_EQ(got.mins[i], row.min) << label << " key " << key;
    ASSERT_EQ(got.maxs[i], row.max) << label << " key " << key;
    ++i;
  }
}

void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.group_keys, b.group_keys) << label;
  EXPECT_EQ(a.sums, b.sums) << label;
  EXPECT_EQ(a.counts, b.counts) << label;
  EXPECT_EQ(a.mins, b.mins) << label;
  EXPECT_EQ(a.maxs, b.maxs) << label;
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << label;
  EXPECT_EQ(a.rows_bloomed, b.rows_bloomed) << label;
  EXPECT_EQ(a.rows_joined, b.rows_joined) << label;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas{Isa::kScalar};
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (IsaSupported(Isa::kAvx512)) isas.push_back(Isa::kAvx512);
  return isas;
}

/// An aggressive schedule for tests: one explore chunk per variant, two
/// exploit chunks, winner forced to rotate every round — guarantees
/// mid-query switches on any grid longer than one round, including inside
/// a morsel-parallel ParallelFor.
ExecConfig AdaptiveTestConfig(Isa anchor, int threads, size_t chunk,
                              uint64_t seed) {
  ExecConfig cfg;
  cfg.isa = anchor;
  cfg.threads = threads;
  cfg.chunk_tuples = chunk;
  cfg.isa_mode = IsaMode::kAdaptive;
  cfg.adaptive.explore_chunks = 1;
  cfg.adaptive.exploit_chunks = 2;
  cfg.adaptive.rotate_for_testing = true;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Dispatcher schedule
// ---------------------------------------------------------------------------

TEST(ExecAdaptiveScheduleTest, ExploreCoversEveryVariantEachRound) {
  ExecConfig cfg;
  cfg.isa = Isa::kScalar;
  cfg.adaptive.explore_chunks = 2;
  cfg.adaptive.exploit_chunks = 3;
  AdaptiveDispatcher d(cfg, ScanMode::kCompact);
  const int v = d.num_variants(OpKind::kBuild);
  if (v < 2) GTEST_SKIP() << "host has a single build variant";
  // One full round: every variant must be explored exactly
  // explore_chunks times, then the exploit tail runs a single winner.
  std::vector<int> explored(static_cast<size_t>(v), 0);
  for (int i = 0; i < 2 * v; ++i) {
    AdaptiveDispatcher::Ticket t = d.Acquire(OpKind::kBuild);
    ASSERT_TRUE(t.explore) << "slot " << i;
    explored[static_cast<size_t>(t.variant)]++;
    d.Report(OpKind::kBuild, t.variant, 100, 1000);
  }
  for (int i = 0; i < v; ++i) EXPECT_EQ(explored[static_cast<size_t>(i)], 2);
  int winner = -1;
  for (int i = 0; i < 3; ++i) {
    AdaptiveDispatcher::Ticket t = d.Acquire(OpKind::kBuild);
    EXPECT_FALSE(t.explore);
    if (winner < 0) winner = t.variant;
    EXPECT_EQ(t.variant, winner);  // exploit sticks to one winner
  }
}

TEST(ExecAdaptiveScheduleTest, FastestVariantWinsAndSwitchCounts) {
  ExecConfig cfg;
  cfg.isa = Isa::kScalar;
  cfg.adaptive.explore_chunks = 1;
  cfg.adaptive.exploit_chunks = 1;
  AdaptiveDispatcher d(cfg, ScanMode::kCompact);
  const int v = d.num_variants(OpKind::kBuild);
  if (v < 2) GTEST_SKIP() << "host has a single build variant";
  // Make variant v-1 clearly cheapest per tuple.
  for (int i = 0; i < v; ++i) {
    AdaptiveDispatcher::Ticket t = d.Acquire(OpKind::kBuild);
    ASSERT_TRUE(t.explore);
    d.Report(OpKind::kBuild, t.variant, t.variant == v - 1 ? 10 : 1000, 1000);
  }
  AdaptiveDispatcher::Ticket t = d.Acquire(OpKind::kBuild);
  EXPECT_FALSE(t.explore);
  EXPECT_EQ(t.variant, v - 1);
  if (v > 1) {
    EXPECT_EQ(d.switches(), 1u);  // winner moved off the static anchor
  }
}

TEST(ExecAdaptiveScheduleTest, RotateForTestingForcesRoundRobinWinners) {
  ExecConfig cfg;
  cfg.isa = Isa::kScalar;
  cfg.adaptive.explore_chunks = 1;
  cfg.adaptive.exploit_chunks = 1;
  cfg.adaptive.rotate_for_testing = true;
  AdaptiveDispatcher d(cfg, ScanMode::kCompact);
  const int v = d.num_variants(OpKind::kBuild);
  if (v < 2) GTEST_SKIP() << "host has a single build variant";
  std::vector<int> winners;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < v; ++i) {
      AdaptiveDispatcher::Ticket t = d.Acquire(OpKind::kBuild);
      d.Report(OpKind::kBuild, t.variant, 100, 1000);
    }
    winners.push_back(d.Acquire(OpKind::kBuild).variant);  // exploit slot
  }
  EXPECT_EQ(winners[0], 0 % v);
  EXPECT_EQ(winners[1], 1 % v);
  EXPECT_EQ(winners[2], 2 % v);
  EXPECT_GE(d.switches(), 2u);
}

// ---------------------------------------------------------------------------
// Byte identity: adaptive == static == reference, switches forced mid-query
// ---------------------------------------------------------------------------

TEST(ExecAdaptiveTest, ByteIdentityAcrossMatrix) {
  const std::pair<size_t, size_t> shapes[] = {
      {256, 0}, {256, 1}, {256, 1023}, {1024, 4097}};
  for (auto [nr, ns] : shapes) {
    QueryData d(nr, ns);
    ScanJoinAggregatePlan plan = d.Plan();
    const auto want = MapReference(d, plan);
    for (Isa anchor : SupportedIsas()) {
      for (int threads : {1, 8}) {
        for (size_t chunk : {size_t{257}, size_t{1024}}) {
          for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
            plan.scan_mode = mode;
            // Two different seeds rotate the explore order differently, so
            // switches land on different chunk boundaries. cfg.seed also
            // seeds the bloom filter / hash table, so the static reference
            // must share it — only the schedule may differ.
            for (uint64_t seed : {uint64_t{1}, uint64_t{42}}) {
              ExecConfig static_cfg;
              static_cfg.isa = anchor;
              static_cfg.isa_mode = IsaMode::kStatic;
              static_cfg.threads = threads;
              static_cfg.chunk_tuples = chunk;
              static_cfg.seed = seed;
              const QueryResult ref =
                  exec::RunScanJoinAggregate(plan, static_cfg);
              const ExecConfig cfg =
                  AdaptiveTestConfig(anchor, threads, chunk, seed);
              const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
              const std::string label =
                  "nr=" + std::to_string(nr) + " ns=" + std::to_string(ns) +
                  " " + IsaName(anchor) + " t=" + std::to_string(threads) +
                  " c=" + std::to_string(chunk) +
                  " m=" + (mode == ScanMode::kBitmap ? "bitmap" : "compact") +
                  " seed=" + std::to_string(seed);
              ExpectIdentical(got, ref, label + " adaptive vs static");
              ExpectMatchesReference(got, want, label + " vs reference");
            }
          }
        }
      }
    }
  }
}

TEST(ExecAdaptiveTest, SwitchesHappenInsideMorselGrid) {
  // 4097 tuples / 64-tuple chunks = 65 chunks; the rotate schedule's first
  // two rounds (v explore chunks + a 16-chunk exploit span, then v + 32)
  // fit inside the grid, so the forced winner change of round 1 lands
  // inside one morsel-parallel dispatch.
  ScopedMetrics metrics;
  QueryData d(1024, 4097);
  ScanJoinAggregatePlan plan = d.Plan();
  const auto want = MapReference(d, plan);
  const ExecConfig cfg = AdaptiveTestConfig(Isa::kScalar, 8, 64, 42);
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  ExpectMatchesReference(got, want, "switch-mid-grid");
  EXPECT_GE(Metric("explore_chunks"), 1u);
  if (IsaSupported(Isa::kAvx2)) {
    EXPECT_GE(Metric("adaptive_switches"), 1u);
    // The exploit spans ran at least two fused variants, so at least two
    // cells of the chosen-variant histogram must be populated.
    int populated = 0;
    for (const char* name :
         {"chosen_fused_scalar_compact", "chosen_fused_avx2_compact",
          "chosen_fused_avx512_compact"}) {
      if (Metric(name) > 0) ++populated;
    }
    EXPECT_GE(populated, 2);
  }
}

TEST(ExecAdaptiveTest, FusedWindowsSwitchInstantiations) {
  ScopedMetrics metrics;
  // The rotating winner first moves off variant 0 at the second round's
  // exploit span, so the grid must be deep enough for two full rounds of
  // (3 per-ISA variants x explore_chunks + exploit span) chunks.
  QueryData d(1024, 26'000);
  ScanJoinAggregatePlan plan = d.Plan();
  const auto want = MapReference(d, plan);
  const ExecConfig cfg = AdaptiveTestConfig(Isa::kScalar, 8, 257, 42);
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  ExpectMatchesReference(got, want, "fused-adaptive");
  EXPECT_GE(Metric("adaptive_switches"), 1u);
  int populated = 0;
  for (const char* name :
       {"chosen_fused_scalar_compact", "chosen_fused_scalar_bitmap",
        "chosen_fused_avx2_compact", "chosen_fused_avx2_bitmap",
        "chosen_fused_avx512_compact", "chosen_fused_avx512_bitmap"}) {
    if (Metric(name) > 0) ++populated;
  }
  EXPECT_GE(populated, 2);
}

TEST(ExecAdaptiveTest, StaticModeKeepsAdaptiveCountersZero) {
  QueryData d(1024, 10'000);
  ScanJoinAggregatePlan plan = d.Plan();
  for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
    ScopedMetrics metrics;
    plan.scan_mode = mode;
    ExecConfig cfg;
    cfg.isa_mode = IsaMode::kStatic;  // the default is adaptive
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ASSERT_FALSE(got.group_keys.empty());
    EXPECT_EQ(Metric("adaptive_switches"), 0u);
    EXPECT_EQ(Metric("explore_chunks"), 0u);
    EXPECT_EQ(Metric("isa_degraded"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Decisions persisted across queries (AdaptiveState)
// ---------------------------------------------------------------------------

/// Runs `plan` `n` times through `state` (nullptr: per-query adaptivity)
/// and returns each query's explore_chunks, checking every result against
/// the map reference.
std::vector<uint64_t> ExploreChunksPerQuery(const QueryData& d,
                                            const ScanJoinAggregatePlan& plan,
                                            ExecConfig cfg,
                                            AdaptiveState* state, int n) {
  const auto want = MapReference(d, plan);
  cfg.adaptive_state = state;
  std::vector<uint64_t> out;
  for (int q = 0; q < n; ++q) {
    const uint64_t before = Metric("explore_chunks");
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ExpectMatchesReference(got, want, "query " + std::to_string(q));
    out.push_back(Metric("explore_chunks") - before);
  }
  return out;
}

TEST(ExecAdaptiveStateTest, PublishThenSeedRoundTrip) {
  ScopedMetrics metrics;
  QueryData d(4096, 262144);
  const ScanJoinAggregatePlan plan = d.Plan();
  AdaptiveState state;
  ExecConfig cfg;
  ExploreChunksPerQuery(d, plan, cfg, &state, 1);
  EXPECT_EQ(state.queries(), 1u);

  const AdaptiveDecisions saved = state.Load();
  const auto& fused = saved.ops[static_cast<int>(OpKind::kFusedWindow)];
  ASSERT_TRUE(fused.valid);
  // The cold schedule grew its exploit span past the 16-chunk start.
  EXPECT_GT(fused.exploit_span, 16u);
  // The block-paced build kind persists its winner too, but no span.
  const auto& build = saved.ops[static_cast<int>(OpKind::kBuild)];
  if (IsaSupported(Isa::kAvx2)) {  // a single variant is never scheduled
    ASSERT_TRUE(build.valid);
    EXPECT_EQ(build.exploit_span, 0u);
  }

  cfg.adaptive_state = &state;
  cfg.isa = Isa::kScalar;  // a different anchor still finds the winner
  const AdaptiveDispatcher seeded(cfg, ScanMode::kCompact);
  EXPECT_TRUE(seeded.warm(OpKind::kFusedWindow));
  EXPECT_EQ(seeded.warm(OpKind::kBuild), build.valid);
  EXPECT_EQ(seeded.current(OpKind::kFusedWindow).isa, fused.winner.isa);
  EXPECT_EQ(seeded.exploit_span(OpKind::kFusedWindow), fused.exploit_span);

  // Fused variants carry the plan's scan mode: a bitmap plan cannot run
  // the compact winner, so its fused kind starts cold.
  const AdaptiveDispatcher other_mode(cfg, ScanMode::kBitmap);
  EXPECT_FALSE(other_mode.warm(OpKind::kFusedWindow));
}

TEST(ExecAdaptiveStateTest, WarmQueriesExploreLessAndStayExact) {
  ScopedMetrics metrics;
  QueryData d(4096, 262144);
  for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
    ScanJoinAggregatePlan plan = d.Plan();
    plan.scan_mode = mode;
    const ExecConfig cfg;
    AdaptiveState state;
    const std::vector<uint64_t> warm =
        ExploreChunksPerQuery(d, plan, cfg, &state, 4);
    const std::string ctx = mode == ScanMode::kBitmap ? "bitmap" : "compact";
    ASSERT_GT(warm[0], 0u) << ctx;
    for (size_t q = 1; q < warm.size(); ++q) {
      EXPECT_LT(warm[q], warm[0]) << ctx << " query " << q;
    }
    // Without a state every query explores like the first.
    const std::vector<uint64_t> cold =
        ExploreChunksPerQuery(d, plan, cfg, nullptr, 2);
    EXPECT_EQ(cold[0], warm[0]) << ctx;
    EXPECT_EQ(cold[1], cold[0]) << ctx;
  }
}

TEST(ExecAdaptiveStateTest, ConcurrentPublishersStayExact) {
  // Queries on one state seed and publish concurrently at threads {1, 8}:
  // no shared hot-path atomics, and every result stays exact.
  QueryData d(2048, 65536);
  const ScanJoinAggregatePlan plan = d.Plan();
  const auto want = MapReference(d, plan);
  AdaptiveState state;
  std::vector<std::thread> workers;
  for (int i = 0; i < 8; ++i) {
    workers.emplace_back([&, i] {
      ExecConfig cfg;
      cfg.threads = i % 2 == 0 ? 1 : 8;
      cfg.adaptive_state = &state;
      for (int q = 0; q < 3; ++q) {
        ExpectMatchesReference(exec::RunScanJoinAggregate(plan, cfg), want,
                               "worker " + std::to_string(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(state.queries(), 24u);
}

// ---------------------------------------------------------------------------
// ISA capability degrade (util/cpu_info SetCpuCapsForTesting)
// ---------------------------------------------------------------------------

struct ScopedCpuCaps {
  explicit ScopedCpuCaps(const CpuInfo* caps) { SetCpuCapsForTesting(caps); }
  ~ScopedCpuCaps() { SetCpuCapsForTesting(nullptr); }
};

TEST(ExecAdaptiveIsaDegradeTest, UnsupportedRequestDegradesInsteadOfSigill) {
  // A host with no vector extensions at all: every vector request must
  // degrade to scalar, and scalar must pass through untouched.
  static const CpuInfo kNoVector{};  // all capability bits false
  ScopedCpuCaps caps(&kNoVector);
  EXPECT_FALSE(IsaSupported(Isa::kAvx2));
  EXPECT_FALSE(IsaSupported(Isa::kAvx512));
  EXPECT_EQ(BestIsa(), Isa::kScalar);
  EXPECT_EQ(EffectiveIsa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(EffectiveIsa(Isa::kAvx2), Isa::kScalar);
  EXPECT_EQ(EffectiveIsa(Isa::kAvx512), Isa::kScalar);

  ScopedMetrics metrics;
  QueryData d(512, 5000);
  ScanJoinAggregatePlan plan = d.Plan();
  const auto want = MapReference(d, plan);
  ExecConfig cfg;
  cfg.isa = Isa::kAvx512;  // would SIGILL if trusted on this "host"
  for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
    plan.scan_mode = mode;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ExpectMatchesReference(got, want,
                           mode == ScanMode::kBitmap ? "bitmap" : "compact");
  }
  EXPECT_GE(Metric("isa_degraded"), 2u);
}

TEST(ExecAdaptiveIsaDegradeTest, Avx512DegradesToAvx2WhenAvailable) {
  CpuInfo avx2_only{};
  avx2_only.avx2 = true;
  ScopedCpuCaps caps(&avx2_only);
  EXPECT_TRUE(IsaSupported(Isa::kAvx2));
  EXPECT_FALSE(IsaSupported(Isa::kAvx512));
  // Degrades to the widest *supported* backend, not all the way to scalar.
  EXPECT_EQ(EffectiveIsa(Isa::kAvx512),
            // The AVX2 kernels only run when the real host has them; under
            // an override on a non-AVX2 host this would still be safe
            // because the test only checks the planner's answer.
            Isa::kAvx2);
  EXPECT_EQ(EffectiveIsa(Isa::kAvx2), Isa::kAvx2);
}

TEST(ExecAdaptiveIsaDegradeTest, DefaultConfigFollowsHostCaps) {
  static const CpuInfo kNoVector{};
  ScopedCpuCaps caps(&kNoVector);
  const ExecConfig cfg;
  EXPECT_EQ(cfg.isa, Isa::kScalar);
  EXPECT_EQ(cfg.isa_mode, IsaMode::kAdaptive);
  QueryData d(512, 20'000);
  const ScanJoinAggregatePlan plan = d.Plan();
  ExpectMatchesReference(exec::RunScanJoinAggregate(plan, cfg),
                         MapReference(d, plan), "default on a scalar host");
}

TEST(ExecAdaptiveIsaDegradeTest, AdaptiveVariantListHonorsCaps) {
  static const CpuInfo kNoVector{};
  ScopedCpuCaps caps(&kNoVector);
  ExecConfig cfg;
  cfg.isa = Isa::kScalar;
  AdaptiveDispatcher d(cfg, ScanMode::kCompact);
  // {scalar} only — no vector variants may enter either schedule on a
  // host without them.
  EXPECT_EQ(d.num_variants(OpKind::kFusedWindow), 1);
  EXPECT_EQ(d.num_variants(OpKind::kBuild), 1);
  EXPECT_EQ(d.variant(OpKind::kFusedWindow, 0).isa, Isa::kScalar);
  EXPECT_EQ(d.variant(OpKind::kBuild, 0).isa, Isa::kScalar);
}

}  // namespace
}  // namespace simddb
