// Serving-layer tests (src/server/): catalog registration/lookup and
// immutability, QuerySpec binding against catalog columns, and the
// acceptance bar for concurrent serving — 8..32 concurrent QuerySessions
// on the shared TaskPool return results byte-identical to serial execution
// of the same plans at threads {1, 8}, every query's morsels drain
// (no-starvation), the admission gate bounds in-flight queries under both
// policies, shared-scan groups feed N consumers from one sweep with
// byte-identical per-member results and fewer pushed chunks than N
// independent scans, per-query metric sinks attribute work with no
// cross-query bleed, and the adaptive decisions the scheduler persists per
// bound key — under the default (best-ISA, adaptive) config — leave
// results identical to a std::map reference, shorten later queries'
// explore work, stay separate per key, and never pick a backend the host
// lacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/query.h"
#include "exec/shared_scan.h"
#include "obs/metrics.h"
#include "server/catalog.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "util/aligned_buffer.h"
#include "util/cpu_info.h"
#include "util/data_gen.h"

namespace simddb {
namespace {

using exec::ExecConfig;
using exec::IsaMode;
using exec::QueryResult;
using exec::ScanJoinAggregatePlan;
using exec::ScanMode;
using server::AdaptiveWinner;
using server::AdmissionPolicy;
using server::Catalog;
using server::QueryScheduler;
using server::QuerySession;
using server::QuerySpec;
using server::ResultSet;
using server::SchedulerOptions;
using server::TableOptions;

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

/// Two catalog tables shaped like the executor's Q3 plan: R(pk, attr) with
/// unique keys 1..nr, S(fk, val). `sequential_vals` makes S.val the row
/// index, so a [lo, hi] window selects a contiguous chunk band — the
/// clustered shape shared-scan skipping wins on.
struct ServerData {
  AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals;
  size_t n_r, n_s;
  Catalog catalog;

  explicit ServerData(size_t nr, size_t ns, bool sequential_vals = false,
                      bool compress = false)
      : n_r(nr), n_s(ns) {
    r_keys.Reset(nr + 16);
    r_attrs.Reset(nr + 16);
    s_fks.Reset(ns + 16);
    s_vals.Reset(ns + 16);
    FillSequential(r_keys.data(), nr, 1);  // unique, no kEmptyKey
    FillUniform(r_attrs.data(), nr, 5, 1, 64);
    FillUniform(s_fks.data(), ns, 6, 1,
                nr == 0 ? 1 : static_cast<uint32_t>(nr));
    if (sequential_vals) {
      FillSequential(s_vals.data(), ns, 0);
    } else {
      FillUniform(s_vals.data(), ns, 7, 0, 999'999);
    }
    TableOptions opts;
    opts.compress = compress;
    EXPECT_NE(
        catalog.RegisterTable("R", r_keys.data(), r_attrs.data(), nr, opts),
        nullptr);
    EXPECT_NE(
        catalog.RegisterTable("S", s_fks.data(), s_vals.data(), ns, opts),
        nullptr);
  }
};

QuerySpec SpecFor(int i, size_t n_r) {
  QuerySpec spec;
  spec.build_table = "R";
  spec.probe_table = "S";
  spec.r_lo = 1;
  spec.r_hi = static_cast<uint32_t>((3 * n_r) / 4);
  spec.s_lo = static_cast<uint32_t>((i * 37) % 700'000);
  spec.s_hi = spec.s_lo + 150'000;
  spec.scan_mode = i % 3 == 2 ? ScanMode::kBitmap : ScanMode::kCompact;
  spec.bloom_bits_per_key = i % 2 == 1 ? 8 : 0;
  spec.max_groups_hint = 128;
  return spec;
}

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const std::string& ctx) {
  ASSERT_EQ(got.group_keys, want.group_keys) << ctx;
  ASSERT_EQ(got.sums, want.sums) << ctx;
  ASSERT_EQ(got.counts, want.counts) << ctx;
  ASSERT_EQ(got.mins, want.mins) << ctx;
  ASSERT_EQ(got.maxs, want.maxs) << ctx;
  EXPECT_EQ(got.rows_build, want.rows_build) << ctx;
  EXPECT_EQ(got.rows_scanned, want.rows_scanned) << ctx;
  EXPECT_EQ(got.rows_bloomed, want.rows_bloomed) << ctx;
  EXPECT_EQ(got.rows_joined, want.rows_joined) << ctx;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(ServerCatalogTest, RegisterFindAndImmutability) {
  Catalog catalog;
  std::vector<uint32_t> keys{1, 2, 3}, vals{10, 20, 30};
  const server::Table* t =
      catalog.RegisterTable("orders", keys.data(), vals.data(), keys.size());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rows(), 3u);
  EXPECT_EQ(t->schema().name, "orders");
  EXPECT_EQ(std::memcmp(t->keys(), keys.data(), 3 * sizeof(uint32_t)), 0);
  EXPECT_EQ(std::memcmp(t->vals(), vals.data(), 3 * sizeof(uint32_t)), 0);

  // The catalog owns a copy: mutating the source does not affect it.
  keys[0] = 999;
  EXPECT_EQ(t->keys()[0], 1u);

  EXPECT_EQ(catalog.Find("orders"), t);
  EXPECT_EQ(catalog.Find("nope"), nullptr);

  // Re-registration is an error, never a replace.
  EXPECT_EQ(
      catalog.RegisterTable("orders", vals.data(), keys.data(), keys.size()),
      nullptr);
  EXPECT_EQ(catalog.Find("orders"), t);

  catalog.RegisterTable("a", keys.data(), vals.data(), 2);
  EXPECT_EQ(catalog.size(), 2u);
  const std::vector<std::string> names = catalog.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // ascending
  EXPECT_EQ(names[1], "orders");
}

TEST(ServerCatalogTest, CompressedTwinsRegisteredOnRequest) {
  Catalog catalog;
  std::vector<uint32_t> keys(5000), vals(5000);
  FillSequential(keys.data(), keys.size(), 1);
  FillUniform(vals.data(), vals.size(), 11, 0, 4095);
  TableOptions opts;
  opts.compress = true;
  const server::Table* t =
      catalog.RegisterTable("c", keys.data(), vals.data(), keys.size(), opts);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->schema().compressed);
  ASSERT_NE(t->keys_compressed(), nullptr);
  ASSERT_NE(t->vals_compressed(), nullptr);
  EXPECT_EQ(t->keys_compressed()->size(), keys.size());
  EXPECT_EQ(t->vals_compressed()->size(), vals.size());

  const server::Table* raw =
      catalog.RegisterTable("raw", keys.data(), vals.data(), keys.size());
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->keys_compressed(), nullptr);
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

TEST(ServerSessionTest, BindResolvesCatalogColumns) {
  ServerData d(1024, 4096);
  QueryScheduler sched(&d.catalog);
  QuerySession session(&d.catalog, &sched);

  QuerySpec spec = SpecFor(0, d.n_r);
  ScanJoinAggregatePlan plan;
  std::string error;
  ASSERT_TRUE(session.Bind(spec, &plan, &error)) << error;
  EXPECT_EQ(plan.r_keys, d.catalog.Find("R")->keys());
  EXPECT_EQ(plan.r_attrs, d.catalog.Find("R")->vals());
  EXPECT_EQ(plan.n_r, d.n_r);
  EXPECT_EQ(plan.s_fks, d.catalog.Find("S")->keys());
  EXPECT_EQ(plan.n_s, d.n_s);
  EXPECT_EQ(plan.s_lo, spec.s_lo);
  EXPECT_EQ(plan.s_hi, spec.s_hi);

  spec.probe_table = "missing";
  EXPECT_FALSE(session.Bind(spec, &plan, &error));
  EXPECT_NE(error.find("missing"), std::string::npos);

  spec.probe_table = "S";
  spec.prefer_compressed = true;  // tables registered without twins
  EXPECT_FALSE(session.Bind(spec, &plan, &error));
}

TEST(ServerSessionTest, CompressedExecutionMatchesRaw) {
  ServerData d(2048, 16384, /*sequential_vals=*/false, /*compress=*/true);
  QueryScheduler sched(&d.catalog);
  QuerySession session(&d.catalog, &sched);
  ExecConfig cfg;
  cfg.threads = 4;

  QuerySpec spec = SpecFor(1, d.n_r);
  ResultSet raw = session.Execute(spec, cfg);
  ASSERT_TRUE(raw.ok) << raw.error;
  spec.prefer_compressed = true;
  ResultSet comp = session.Execute(spec, cfg);
  ASSERT_TRUE(comp.ok) << comp.error;
  ExpectSameResult(comp.result, raw.result, "compressed vs raw");
}

// ---------------------------------------------------------------------------
// Concurrent serving: byte-identity + no-starvation
// ---------------------------------------------------------------------------

TEST(ServerSchedulerTest, ConcurrentSessionsByteIdenticalVsSerial) {
  ServerData d(4096, 65536);
  for (int clients : {8, 32}) {
    for (int threads : {1, 8}) {
      ExecConfig cfg;
      cfg.threads = threads;

      // Serial reference: the same bound plans straight through the
      // executor, one at a time.
      std::vector<QueryResult> want;
      for (int i = 0; i < clients; ++i) {
        ScanJoinAggregatePlan plan;
        std::string error;
        ASSERT_TRUE(
            server::BindQuery(d.catalog, SpecFor(i, d.n_r), &plan, &error));
        want.push_back(exec::RunScanJoinAggregate(plan, cfg));
      }

      QueryScheduler sched(&d.catalog);
      std::vector<ResultSet> got(clients);
      std::vector<std::thread> workers;
      for (int i = 0; i < clients; ++i) {
        workers.emplace_back([&, i] {
          QuerySession session(&d.catalog, &sched);
          got[i] = session.Execute(SpecFor(i, d.n_r), cfg);
        });
      }
      for (auto& w : workers) w.join();

      for (int i = 0; i < clients; ++i) {
        const std::string ctx = "clients=" + std::to_string(clients) +
                                " threads=" + std::to_string(threads) +
                                " q=" + std::to_string(i);
        ASSERT_TRUE(got[i].ok) << ctx << ": " << got[i].error;
        ExpectSameResult(got[i].result, want[i], ctx);
        // No-starvation: every query's morsels drained, including at
        // threads = 1 (inline path).
        EXPECT_GE(got[i].stats.morsels_drained, 1u) << ctx;
      }
      EXPECT_EQ(sched.queries_completed(), static_cast<uint64_t>(clients));
    }
  }
}

TEST(ServerSchedulerTest, AdmissionBlocksAtMaxInflight) {
  ServerData d(2048, 32768);
  SchedulerOptions opts;
  opts.max_inflight = 2;
  opts.policy = AdmissionPolicy::kBlock;
  QueryScheduler sched(&d.catalog, opts);
  EXPECT_EQ(sched.max_inflight(), 2);
  ExecConfig cfg;
  cfg.threads = 4;

  constexpr int kClients = 12;
  std::vector<ResultSet> got(kClients);
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      QuerySession session(&d.catalog, &sched);
      got[i] = session.Execute(SpecFor(i, d.n_r), cfg);
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    EXPECT_FALSE(got[i].stats.rejected);
  }
  EXPECT_EQ(sched.queries_completed(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(sched.queries_rejected(), 0u);
}

TEST(ServerSchedulerTest, AdmissionRejectPolicyRefusesOverload) {
  ServerData d(4096, 262144);
  SchedulerOptions opts;
  opts.max_inflight = 1;
  opts.policy = AdmissionPolicy::kReject;
  QueryScheduler sched(&d.catalog, opts);
  ExecConfig cfg;
  cfg.threads = 2;

  constexpr int kClients = 8;
  std::atomic<int> ready{0};
  std::vector<ResultSet> got(kClients);
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      QuerySession session(&d.catalog, &sched);
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      got[i] = session.Execute(SpecFor(i, d.n_r), cfg);
    });
  }
  for (auto& w : workers) w.join();

  int ok = 0, rejected = 0;
  for (const ResultSet& rs : got) {
    if (rs.ok) {
      ++ok;
    } else {
      EXPECT_TRUE(rs.stats.rejected);
      EXPECT_NE(rs.error.find("admission"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kClients);
  EXPECT_GE(ok, 1);
  // 8 simultaneous arrivals against a 1-slot gate: overlap is certain
  // enough that at least one rejection must occur.
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(sched.queries_rejected(), static_cast<uint64_t>(rejected));
}

// ---------------------------------------------------------------------------
// Shared scans
// ---------------------------------------------------------------------------

TEST(ServerSharedScanTest, SharedSweepByteIdenticalToSolo) {
  constexpr int kClients = 8;
  ServerData d(4096, 131072, /*sequential_vals=*/true);
  ExecConfig cfg;
  cfg.threads = 4;

  // Disjoint contiguous windows over the sequential val column.
  auto spec_for = [&](int i) {
    QuerySpec spec = SpecFor(i, d.n_r);
    const uint32_t w = static_cast<uint32_t>(d.n_s / kClients);
    spec.s_lo = static_cast<uint32_t>(i) * w;
    spec.s_hi = spec.s_lo + w - 1;
    return spec;
  };

  std::vector<QueryResult> want;
  for (int i = 0; i < kClients; ++i) {
    ScanJoinAggregatePlan plan;
    std::string error;
    ASSERT_TRUE(server::BindQuery(d.catalog, spec_for(i), &plan, &error));
    want.push_back(exec::RunScanJoinAggregate(plan, cfg));
  }

  SchedulerOptions opts;
  opts.shared_scans = true;
  opts.shared_gather_hint = kClients;
  opts.shared_gather_timeout_ns = 1'000'000'000;  // hint closes the group
  QueryScheduler sched(&d.catalog, opts);
  std::vector<ResultSet> got(kClients);
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      QuerySession session(&d.catalog, &sched);
      got[i] = session.Execute(spec_for(i), cfg);
    });
  }
  for (auto& w : workers) w.join();

  for (int i = 0; i < kClients; ++i) {
    const std::string ctx = "shared q=" + std::to_string(i);
    ASSERT_TRUE(got[i].ok) << ctx << ": " << got[i].error;
    EXPECT_TRUE(got[i].stats.shared_scan) << ctx;
    EXPECT_GE(got[i].stats.morsels_drained, 1u) << ctx;
    ExpectSameResult(got[i].result, want[i], ctx);
  }
}

TEST(ServerSharedScanTest, SharedSweepPushesFewerChunksThanSoloScans) {
  constexpr int kClients = 8;
  ServerData d(4096, 131072, /*sequential_vals=*/true);
  ExecConfig cfg;
  cfg.threads = 4;
  auto spec_for = [&](int i) {
    QuerySpec spec;
    spec.build_table = "R";
    spec.probe_table = "S";
    spec.r_lo = 1;
    spec.r_hi = static_cast<uint32_t>(d.n_r);
    const uint32_t w = static_cast<uint32_t>(d.n_s / kClients);
    spec.s_lo = static_cast<uint32_t>(i) * w;
    spec.s_hi = spec.s_lo + w - 1;
    spec.max_groups_hint = 128;
    return spec;
  };

  ScopedMetrics metrics;
  for (int i = 0; i < kClients; ++i) {
    ScanJoinAggregatePlan plan;
    std::string error;
    ASSERT_TRUE(server::BindQuery(d.catalog, spec_for(i), &plan, &error));
    exec::RunScanJoinAggregate(plan, cfg);
  }
  const uint64_t solo_morsels = Metric("morsels");

  SchedulerOptions opts;
  opts.shared_scans = true;
  opts.shared_gather_hint = kClients;
  opts.shared_gather_timeout_ns = 1'000'000'000;
  QueryScheduler sched(&d.catalog, opts);
  std::vector<std::thread> workers;
  std::vector<ResultSet> got(kClients);
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      QuerySession session(&d.catalog, &sched);
      got[i] = session.Execute(spec_for(i), cfg);
    });
  }
  for (auto& w : workers) w.join();
  for (const ResultSet& rs : got) ASSERT_TRUE(rs.ok) << rs.error;

  const uint64_t shared_morsels = Metric("morsels") - solo_morsels;
  EXPECT_EQ(Metric("shared_sweeps"), 1u);  // one sweep fed all members
  EXPECT_EQ(Metric("shared_members"), static_cast<uint64_t>(kClients));
  // One probe grid dispatched for N members: the group runs N build grids
  // plus ONE 128-chunk probe grid, where N solo queries each run their own
  // build and probe grids.
  const uint64_t build_chunks = d.n_r / 1024, probe_chunks = d.n_s / 1024;
  EXPECT_EQ(solo_morsels, kClients * (build_chunks + probe_chunks));
  EXPECT_EQ(shared_morsels, kClients * build_chunks + probe_chunks);
  EXPECT_LT(shared_morsels, solo_morsels / 2)
      << "shared=" << shared_morsels << " solo=" << solo_morsels;
}

// ---------------------------------------------------------------------------
// Per-query metric attribution
// ---------------------------------------------------------------------------

TEST(ServerSchedulerTest, PerQueryMetricsDoNotBleedAcrossConcurrentQueries) {
  ScopedMetrics metrics;
  // Two very different probe sizes: the small query's per-query sink must
  // see its own small chunk count even while the big query concurrently
  // pushes an order of magnitude more.
  ServerData big(2048, 131072);
  ASSERT_NE(big.catalog.RegisterTable("S_small", big.s_fks.data(),
                                      big.s_vals.data(), 4096),
            nullptr);
  QueryScheduler sched(&big.catalog);
  ExecConfig cfg;
  cfg.threads = 4;

  QuerySpec big_spec = SpecFor(0, big.n_r);
  QuerySpec small_spec = SpecFor(0, big.n_r);
  small_spec.probe_table = "S_small";

  ResultSet big_rs, small_rs;
  std::thread tb([&] {
    QuerySession session(&big.catalog, &sched);
    big_rs = session.Execute(big_spec, cfg);
  });
  std::thread ts([&] {
    QuerySession session(&big.catalog, &sched);
    small_rs = session.Execute(small_spec, cfg);
  });
  tb.join();
  ts.join();
  ASSERT_TRUE(big_rs.ok) << big_rs.error;
  ASSERT_TRUE(small_rs.ok) << small_rs.error;

  const uint64_t big_pushed = big_rs.stats.metrics["chunks_pushed"];
  const uint64_t small_pushed = small_rs.stats.metrics["chunks_pushed"];
  EXPECT_GT(big_pushed, 0u);
  EXPECT_GT(small_pushed, 0u);
  // Structural bound, independent of timing: the small query's whole plan
  // is ~4 probe chunks + ~2 build chunks through <= 3 forwarding
  // operators. If the big query's concurrent pushes bled into the small
  // sink, this bound would explode past the hundreds.
  EXPECT_LT(small_pushed, 64u);
  EXPECT_GT(big_pushed, small_pushed);
  // Both sinks together never exceed what the registry recorded globally.
  EXPECT_LE(big_pushed + small_pushed, Metric("chunks_pushed"));
}

// ---------------------------------------------------------------------------
// Adaptive decisions persisted per bound key
// ---------------------------------------------------------------------------

/// Scalar std::map reference over the raw columns, independent of every
/// library kernel: the canonical group rows the spec must return.
QueryResult MapReference(const ServerData& d, const QuerySpec& spec) {
  std::map<uint32_t, uint32_t> r;
  for (size_t i = 0; i < d.n_r; ++i) {
    if (d.r_keys[i] >= spec.r_lo && d.r_keys[i] <= spec.r_hi) {
      r[d.r_keys[i]] = d.r_attrs[i];
    }
  }
  struct Row {
    uint64_t sum = 0;
    uint32_t count = 0, min = 0xFFFFFFFFu, max = 0;
  };
  std::map<uint32_t, Row> groups;
  for (size_t i = 0; i < d.n_s; ++i) {
    if (d.s_vals[i] < spec.s_lo || d.s_vals[i] > spec.s_hi) continue;
    auto it = r.find(d.s_fks[i]);
    if (it == r.end()) continue;
    Row& g = groups[it->second];
    g.sum += d.s_vals[i];
    g.count += 1;
    g.min = std::min(g.min, d.s_vals[i]);
    g.max = std::max(g.max, d.s_vals[i]);
  }
  QueryResult out;
  for (const auto& [key, g] : groups) {
    out.group_keys.push_back(key);
    out.sums.push_back(g.sum);
    out.counts.push_back(g.count);
    out.mins.push_back(g.min);
    out.maxs.push_back(g.max);
  }
  return out;
}

void ExpectSameRows(const QueryResult& got, const QueryResult& want,
                    const std::string& ctx) {
  ASSERT_EQ(got.group_keys, want.group_keys) << ctx;
  ASSERT_EQ(got.sums, want.sums) << ctx;
  ASSERT_EQ(got.counts, want.counts) << ctx;
  ASSERT_EQ(got.mins, want.mins) << ctx;
  ASSERT_EQ(got.maxs, want.maxs) << ctx;
}

/// explore_chunks of each of `n` sequential runs of `spec` through `sched`,
/// read from the queries' own metric sinks (metrics must be on).
std::vector<uint64_t> ExploreChunksPerQuery(const ServerData& d,
                                            QueryScheduler* sched,
                                            const QuerySpec& spec,
                                            const ExecConfig& cfg, int n) {
  std::vector<uint64_t> out;
  QuerySession session(&d.catalog, sched);
  for (int q = 0; q < n; ++q) {
    ResultSet rs = session.Execute(spec, cfg);
    EXPECT_TRUE(rs.ok) << rs.error;
    ExpectSameRows(rs.result, MapReference(d, spec),
                   "query " + std::to_string(q));
    out.push_back(rs.stats.metrics["explore_chunks"]);
  }
  return out;
}

TEST(ServerAdaptiveTest, DefaultConfigIsBestIsaAdaptive) {
  const ExecConfig cfg;
  EXPECT_EQ(cfg.isa, BestIsa());
  EXPECT_EQ(cfg.isa_mode, IsaMode::kAdaptive);
  EXPECT_EQ(cfg.adaptive_state, nullptr);
}

TEST(ServerAdaptiveTest, DefaultConfigConcurrentSessionsMatchMapReference) {
  ServerData d(4096, 65536, /*sequential_vals=*/false, /*compress=*/true);
  for (bool packed : {false, true}) {
    for (int threads : {1, 8}) {
      for (int clients : {8, 32}) {
        ExecConfig cfg;  // the serving default: best ISA, adaptive
        cfg.threads = threads;
        QueryScheduler sched(&d.catalog);
        std::vector<std::vector<ResultSet>> got(clients);
        std::vector<std::thread> workers;
        for (int i = 0; i < clients; ++i) {
          workers.emplace_back([&, i] {
            QuerySession session(&d.catalog, &sched);
            QuerySpec spec = SpecFor(i, d.n_r);
            spec.prefer_compressed = packed;
            // Two queries per session: the second is seeded from whatever
            // the key's state holds by then, concurrently with publishers.
            for (int q = 0; q < 2; ++q) {
              got[i].push_back(session.Execute(spec, cfg));
            }
          });
        }
        for (auto& w : workers) w.join();
        for (int i = 0; i < clients; ++i) {
          const std::string ctx =
              std::string(packed ? "packed" : "raw") +
              " threads=" + std::to_string(threads) +
              " clients=" + std::to_string(clients) +
              " q=" + std::to_string(i);
          const QueryResult want = MapReference(d, SpecFor(i, d.n_r));
          for (const ResultSet& rs : got[i]) {
            ASSERT_TRUE(rs.ok) << ctx << ": " << rs.error;
            ExpectSameRows(rs.result, want, ctx);
          }
        }
        // Every session bound the one (R, S, storage) key.
        for (const AdaptiveWinner& w : sched.AdaptiveWinners()) {
          EXPECT_EQ(w.key, packed ? "R/S/packed" : "R/S/raw");
          EXPECT_EQ(w.queries, static_cast<uint64_t>(2 * clients));
        }
        EXPECT_FALSE(sched.AdaptiveWinners().empty());
      }
    }
  }
}

TEST(ServerAdaptiveTest, WarmKeyExploresLessThanItsFirstQuery) {
  ScopedMetrics metrics;
  // 256 probe chunks: a cold fused schedule needs three rounds to grow its
  // exploit span; a warm one resumes at the grown span.
  ServerData d(4096, 262144, /*sequential_vals=*/false, /*compress=*/true);
  for (bool packed : {false, true}) {
    const std::string ctx = packed ? "packed" : "raw";
    const ExecConfig cfg;
    QueryScheduler sched(&d.catalog);
    QuerySpec spec = SpecFor(0, d.n_r);
    spec.prefer_compressed = packed;
    const std::vector<uint64_t> explored =
        ExploreChunksPerQuery(d, &sched, spec, cfg, 5);
    ASSERT_GT(explored[0], 0u) << ctx;
    for (size_t q = 1; q < explored.size(); ++q) {
      EXPECT_LT(explored[q], explored[0]) << ctx << " query " << q;
    }
  }
}

TEST(ServerAdaptiveTest, KeysKeepSeparateState) {
  ScopedMetrics metrics;
  ServerData d(4096, 262144, /*sequential_vals=*/false, /*compress=*/true);
  ASSERT_NE(d.catalog.RegisterTable("S2", d.s_fks.data(), d.s_vals.data(),
                                    d.n_s),
            nullptr);
  const ExecConfig cfg;
  QuerySpec raw = SpecFor(0, d.n_r);
  QuerySpec packed = raw;
  packed.prefer_compressed = true;
  QuerySpec other = raw;
  other.probe_table = "S2";

  // Cold baselines: each key's first query on a fresh scheduler.
  auto cold = [&](const QuerySpec& spec) {
    QueryScheduler fresh(&d.catalog);
    return ExploreChunksPerQuery(d, &fresh, spec, cfg, 1)[0];
  };
  const uint64_t cold_packed = cold(packed);
  const uint64_t cold_other = cold(other);

  // Warm one key, then touch the others: neither inherits its state, so
  // each first query explores exactly like a cold key (same grid, same
  // variants, threads = 1: the schedule is deterministic).
  QueryScheduler sched(&d.catalog);
  ExploreChunksPerQuery(d, &sched, raw, cfg, 4);
  for (const AdaptiveWinner& w : sched.AdaptiveWinners()) {
    EXPECT_EQ(w.key, "R/S/raw");
  }
  EXPECT_EQ(ExploreChunksPerQuery(d, &sched, packed, cfg, 1)[0], cold_packed);
  EXPECT_EQ(ExploreChunksPerQuery(d, &sched, other, cfg, 1)[0], cold_other);

  std::map<std::string, uint64_t> queries_by_key;
  for (const AdaptiveWinner& w : sched.AdaptiveWinners()) {
    queries_by_key[w.key] = w.queries;
  }
  EXPECT_EQ(queries_by_key,
            (std::map<std::string, uint64_t>{
                {"R/S/raw", 4}, {"R/S/packed", 1}, {"R/S2/raw", 1}}));
}

TEST(ServerAdaptiveTest, PinnedStaticQueriesLeaveNoState) {
  ServerData d(2048, 16384);
  QueryScheduler sched(&d.catalog);
  QuerySession session(&d.catalog, &sched);
  ExecConfig cfg;
  cfg.isa = Isa::kScalar;
  cfg.isa_mode = IsaMode::kStatic;
  const QuerySpec spec = SpecFor(0, d.n_r);
  ResultSet rs = session.Execute(spec, cfg);
  ASSERT_TRUE(rs.ok) << rs.error;
  ExpectSameRows(rs.result, MapReference(d, spec), "static scalar");
  EXPECT_TRUE(sched.AdaptiveWinners().empty());
}

struct ScopedCpuCaps {
  explicit ScopedCpuCaps(const CpuInfo* caps) { SetCpuCapsForTesting(caps); }
  ~ScopedCpuCaps() { SetCpuCapsForTesting(nullptr); }
};

TEST(ServerAdaptiveTest, HostWithoutAvx512StillServes) {
  ServerData d(4096, 65536, /*sequential_vals=*/false, /*compress=*/true);
  // Built before the override: on an AVX-512 host this config anchors on
  // AVX-512, which EffectiveIsa must clamp at plan build.
  const ExecConfig built_on_host;
  CpuInfo caps{};
  caps.avx2 = IsaSupported(Isa::kAvx2);  // never claim what the host lacks
  ScopedCpuCaps override(&caps);
  ASSERT_FALSE(IsaSupported(Isa::kAvx512));
  const ExecConfig built_here;
  EXPECT_NE(built_here.isa, Isa::kAvx512);

  for (const ExecConfig& cfg : {built_on_host, built_here}) {
    QueryScheduler sched(&d.catalog);
    for (bool packed : {false, true}) {
      QuerySpec spec = SpecFor(1, d.n_r);
      spec.prefer_compressed = packed;
      QuerySession session(&d.catalog, &sched);
      for (int q = 0; q < 3; ++q) {
        ResultSet rs = session.Execute(spec, cfg);
        ASSERT_TRUE(rs.ok) << rs.error;
        ExpectSameRows(rs.result, MapReference(d, spec),
                       packed ? "packed" : "raw");
      }
    }
    ASSERT_FALSE(sched.AdaptiveWinners().empty());
    for (const AdaptiveWinner& w : sched.AdaptiveWinners()) {
      EXPECT_EQ(w.variant.find("avx512"), std::string::npos)
          << w.key << " " << w.variant;
    }
  }
}

}  // namespace
}  // namespace simddb
