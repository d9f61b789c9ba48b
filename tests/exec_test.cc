// Execution subsystem tests (src/exec/): bitmap <-> selection converter
// properties against the scalar reference on every ISA, the fused
// two-column gather, and the acceptance bar for the fused engine — the
// scan -> bloom -> join -> group-by plan produces byte-identical canonical
// results across ISAs, thread counts {1, 8}, chunk sizes (including
// non-chunk-multiple and degenerate inputs n in {0, 1, 1023}), scan modes
// (compact vs bitmap), storage, and breaker configurations, and matches
// both a hand-composed serial kernel sequence and a std::map reference.
// The engine's counters (chunks_pushed, pipelines_fused) are checked
// against exact plan shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "bloom/bloom_filter.h"
#include "agg/group_by.h"
#include "compress/column.h"
#include "core/isa.h"
#include "exec/chunk.h"
#include "exec/fused.h"
#include "exec/query.h"
#include "hash/linear_probing.h"
#include "obs/metrics.h"
#include "scan/selection_scan.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"
#include "util/rng.h"

namespace simddb {
namespace {

using exec::ChunkCapacity;
using exec::ChunkBitmapWords;
using exec::ExecConfig;
using exec::IsaMode;
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

// ---------------------------------------------------------------------------
// Converter kernels
// ---------------------------------------------------------------------------

class ExecChunkIsaTest : public ::testing::TestWithParam<Isa> {};

TEST_P(ExecChunkIsaTest, BitmapToSelectionMatchesScalar) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  Pcg32 rng(123);
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{1023}, size_t{1024}, size_t{4097}}) {
    // Densities from empty to full, including single-bit patterns.
    for (uint32_t density_pct : {0u, 1u, 50u, 99u, 100u}) {
      const size_t words = ChunkBitmapWords(n);
      AlignedBuffer<uint64_t> bitmap(words + 1);
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = 0;
        for (int b = 0; b < 64; ++b) {
          if (rng.NextBounded(100) < density_pct) word |= uint64_t{1} << b;
        }
        bitmap[w] = word;
      }
      if (n & 63 && words > 0) {
        bitmap[words - 1] &= (uint64_t{1} << (n & 63)) - 1;  // bits >= n zero
      }
      AlignedBuffer<uint32_t> want(ChunkCapacity(n)), got(ChunkCapacity(n));
      const size_t want_n =
          exec::detail::BitmapToSelectionScalar(bitmap.data(), n, want.data());
      const size_t got_n =
          exec::BitmapToSelection(isa, bitmap.data(), n, got.data());
      ASSERT_EQ(got_n, want_n) << "n=" << n << " d=" << density_pct;
      for (size_t i = 0; i < want_n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "n=" << n << " @" << i;
      }
    }
  }
}

TEST_P(ExecChunkIsaTest, SelectionBitmapRoundTrip) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  Pcg32 rng(77);
  for (size_t n : {size_t{1}, size_t{64}, size_t{1000}, size_t{4096}}) {
    // Random ascending selection of ~half the positions.
    std::vector<uint32_t> sel;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBounded(2) == 0) sel.push_back(static_cast<uint32_t>(i));
    }
    AlignedBuffer<uint64_t> bitmap(ChunkBitmapWords(n) + 1);
    exec::SelectionToBitmap(sel.data(), sel.size(), n, bitmap.data());
    AlignedBuffer<uint32_t> back(ChunkCapacity(n));
    const size_t cnt = exec::BitmapToSelection(isa, bitmap.data(), n,
                                               back.data());
    ASSERT_EQ(cnt, sel.size()) << "n=" << n;
    for (size_t i = 0; i < cnt; ++i) ASSERT_EQ(back[i], sel[i]);
  }
}

TEST_P(ExecChunkIsaTest, RangePredicateBitmapMatchesScalar) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{1023},
                   size_t{5000}}) {
    AlignedBuffer<uint32_t> keys(n + 16);
    FillUniform(keys.data(), n, 99, 0, 0xFFFFFFFFu);
    const size_t words = ChunkBitmapWords(n);
    // Bounds including the degenerate unbounded forms (AVX2 falls back to
    // scalar there: the sign-bias trick wraps on lo-1 / hi+1).
    const std::pair<uint32_t, uint32_t> bounds[] = {
        {0, 0xFFFFFFFFu},          {0, 0x7FFFFFFFu},
        {0x40000000u, 0xC0000000u}, {5, 5},
        {0xFFFFFFF0u, 0xFFFFFFFFu}, {7, 3}};  // empty range too
    for (auto [lo, hi] : bounds) {
      AlignedBuffer<uint64_t> want(words + 1), got(words + 1);
      const size_t want_n = exec::detail::RangePredicateBitmapScalar(
          keys.data(), n, lo, hi, want.data());
      const size_t got_n =
          exec::RangePredicateBitmap(isa, keys.data(), n, lo, hi, got.data());
      ASSERT_EQ(got_n, want_n) << "n=" << n << " lo=" << lo << " hi=" << hi;
      for (size_t w = 0; w < words; ++w) {
        ASSERT_EQ(got[w], want[w]) << "n=" << n << " word " << w;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, ExecChunkIsaTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                           Isa::kAvx512),
                         [](const auto& info) {
                           return std::string(IsaName(info.param));
                         });

TEST(ExecChunkTest, CompactGathersEveryColumn) {
  // The fused gather (bitmap-mode scans) pulls both columns through one
  // selection vector, on every ISA, including a sub-vector tail.
  for (size_t n : {size_t{0}, size_t{1}, size_t{17}, size_t{1000}}) {
    AlignedBuffer<uint32_t> a(ChunkCapacity(n)), b(ChunkCapacity(n));
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<uint32_t>(i);
      b[i] = static_cast<uint32_t>(1000 + i);
    }
    std::vector<uint32_t> sel;
    for (size_t i = 0; i < n; i += 3) sel.push_back(static_cast<uint32_t>(i));
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
      if (!IsaSupported(isa)) continue;
      AlignedBuffer<uint32_t> out_a(ChunkCapacity(n)), out_b(ChunkCapacity(n));
      exec::detail::GatherPair(isa, a.data(), b.data(), sel.data(),
                               sel.size(), out_a.data(), out_b.data());
      for (size_t j = 0; j < sel.size(); ++j) {
        ASSERT_EQ(out_a[j], 3 * j) << IsaName(isa) << " n=" << n << " @" << j;
        ASSERT_EQ(out_b[j], 1000 + 3 * j) << IsaName(isa) << " @" << j;
      }
    }
  }
}

TEST(ExecChunkTest, MaterializeCountsConversions) {
  // A fully active chunk round-trips selection -> bitmap -> selection with
  // every count preserved, and a range predicate covering every value
  // produces the same all-ones bitmap.
  const size_t n = 256;
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  AlignedBuffer<uint64_t> bitmap(ChunkBitmapWords(n) + 1);
  exec::SelectionToBitmap(all.data(), n, n, bitmap.data());
  for (size_t w = 0; w < ChunkBitmapWords(n); ++w) {
    ASSERT_EQ(bitmap[w], ~uint64_t{0}) << "word " << w;
  }
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    AlignedBuffer<uint32_t> sel(ChunkCapacity(n));
    ASSERT_EQ(exec::BitmapToSelection(isa, bitmap.data(), n, sel.data()), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(sel[i], i);
    AlignedBuffer<uint64_t> pred(ChunkBitmapWords(n) + 1);
    ASSERT_EQ(exec::RangePredicateBitmap(isa, all.data(), n, 0, 0xFFFFFFFFu,
                                         pred.data()),
              n);
    for (size_t w = 0; w < ChunkBitmapWords(n); ++w) {
      ASSERT_EQ(pred[w], bitmap[w]) << IsaName(isa) << " word " << w;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end query byte-identity
// ---------------------------------------------------------------------------

struct QueryData {
  AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals;
  size_t n_r = 0, n_s = 0;

  QueryData(size_t nr, size_t ns) : n_r(nr), n_s(ns) {
    r_keys.Reset(nr + 16);
    r_attrs.Reset(nr + 16);
    s_fks.Reset(ns + 16);
    s_vals.Reset(ns + 16);
    // Unique R keys 1..nr (0xFFFFFFFF = kEmptyKey must not appear; attrs
    // are group keys with the same constraint).
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
    p.r_hi = n_r == 0 ? 1 : static_cast<uint32_t>((3 * n_r) / 4);  // 75% of R
    p.s_fks = s_fks.data();
    p.s_vals = s_vals.data();
    p.n_s = n_s;
    p.s_lo = 0;
    p.s_hi = 99'999;  // ~10% of S
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
  std::map<uint32_t, uint32_t> r;  // pk -> attr, post-filter
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
  EXPECT_EQ(a.rows_joined, b.rows_joined) << label;
}

/// The acceptance reference: the same plan hand-composed from the existing
/// operator kernels, serial, no executor involved.
QueryResult HandComposed(const QueryData& d, const ScanJoinAggregatePlan& p,
                         Isa isa) {
  const ScanVariant v = exec::ScanVariantForIsa(isa);
  QueryResult res;

  AlignedBuffer<uint32_t> rk(SelectionScanCapacity(d.n_r)),
      ra(SelectionScanCapacity(d.n_r));
  const size_t n_build = SelectionScan(v, p.r_keys, p.r_attrs, d.n_r, p.r_lo,
                                       p.r_hi, rk.data(), ra.data(),
                                       rk.size());
  size_t buckets = 16;
  while (buckets < 2 * (n_build + 1)) buckets <<= 1;
  LinearProbingTable table(buckets);
  table.Build(isa, rk.data(), ra.data(), n_build);

  AlignedBuffer<uint32_t> sv(SelectionScanCapacity(d.n_s)),
      sf(SelectionScanCapacity(d.n_s));
  // Scan keyed on S.val carrying the fk as payload, like the executor.
  size_t n_sel = SelectionScan(v, p.s_vals, p.s_fks, d.n_s, p.s_lo, p.s_hi,
                               sv.data(), sf.data(), sv.size());
  const uint32_t* fks = sf.data();
  const uint32_t* vals = sv.data();
  AlignedBuffer<uint32_t> bf(n_sel + 16), bv(n_sel + 16);
  if (p.bloom_bits_per_key > 0 && n_build > 0) {
    BloomFilter filter = BloomFilter::ForItems(
        n_build, p.bloom_bits_per_key, p.bloom_k, 42);
    filter.Add(rk.data(), n_build);
    n_sel = filter.Probe(isa, fks, vals, n_sel, bf.data(), bv.data());
    fks = bf.data();
    vals = bv.data();
  }
  AlignedBuffer<uint32_t> jk(n_sel + 16), jsp(n_sel + 16), jrp(n_sel + 16);
  const size_t n_join =
      table.Probe(isa, fks, vals, n_sel, jk.data(), jsp.data(), jrp.data());
  res.rows_joined = n_join;

  GroupByAggregator agg(p.max_groups_hint);
  agg.Accumulate(isa, jrp.data(), jsp.data(), n_join);
  const size_t g = agg.num_groups();
  std::vector<uint32_t> k(g), cnt(g), mn(g), mx(g);
  std::vector<uint64_t> sm(g);
  agg.Extract(isa, k.data(), sm.data(), cnt.data(), mn.data(), mx.data());
  std::vector<uint32_t> perm(g);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&](uint32_t a, uint32_t b) { return k[a] < k[b]; });
  res.group_keys.resize(g);
  res.sums.resize(g);
  res.counts.resize(g);
  res.mins.resize(g);
  res.maxs.resize(g);
  for (size_t i = 0; i < g; ++i) {
    res.group_keys[i] = k[perm[i]];
    res.sums[i] = sm[perm[i]];
    res.counts[i] = cnt[perm[i]];
    res.mins[i] = mn[perm[i]];
    res.maxs[i] = mx[perm[i]];
  }
  return res;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas{Isa::kScalar};
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (IsaSupported(Isa::kAvx512)) isas.push_back(Isa::kAvx512);
  return isas;
}

TEST(ExecQueryTest, MatchesHandComposedAndReferenceAcrossMatrix) {
  QueryData d(4096, 60'000);
  ScanJoinAggregatePlan plan = d.Plan();
  const auto want = MapReference(d, plan);

  for (int bloom : {0, 10}) {
    for (uint32_t fanout : {0u, 16u}) {
      plan.bloom_bits_per_key = bloom;
      plan.partition_fanout = fanout;
      QueryResult first;
      bool have_first = false;
      for (Isa isa : SupportedIsas()) {
        const QueryResult hand = HandComposed(d, plan, isa);
        for (int threads : {1, 8}) {
          for (size_t chunk : {size_t{257}, size_t{1024}}) {
            for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
              plan.scan_mode = mode;
              ExecConfig cfg;
              cfg.isa = isa;
              cfg.isa_mode = IsaMode::kStatic;  // per-ISA sweep
              cfg.threads = threads;
              cfg.chunk_tuples = chunk;
              const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
              const std::string label =
                  std::string(IsaName(isa)) + " t=" +
                  std::to_string(threads) + " c=" + std::to_string(chunk) +
                  " m=" + (mode == ScanMode::kBitmap ? "bitmap" : "compact") +
                  " b=" + std::to_string(bloom) +
                  " f=" + std::to_string(fanout);
              ExpectMatchesReference(got, want, label);
              ExpectIdentical(got, hand, label + " vs hand-composed");
              if (!have_first) {
                first = got;
                have_first = true;
              } else {
                ExpectIdentical(got, first, label + " vs first config");
              }
            }
          }
        }
      }
    }
  }
}

TEST(ExecQueryTest, EdgeInputSizes) {
  // n in {0, 1, 1023, non-chunk-multiple}; R empty and tiny.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0}, {5, 0}, {0, 100}, {5, 1}, {16, 1023}, {7, 4097}};
  for (auto [nr, ns] : shapes) {
    QueryData d(nr, ns);
    ScanJoinAggregatePlan plan = d.Plan();
    plan.s_hi = 999'999;  // keep everything: exercises full chunks
    plan.bloom_bits_per_key = 10;
    const auto want = MapReference(d, plan);
    for (int threads : {1, 8}) {
      for (size_t chunk : {size_t{1}, size_t{64}, size_t{1023}}) {
        for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
          plan.scan_mode = mode;
          ExecConfig cfg;
          cfg.threads = threads;
          cfg.chunk_tuples = chunk;
          const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
          ExpectMatchesReference(
              got, want,
              "nr=" + std::to_string(nr) + " ns=" + std::to_string(ns) +
                  " t=" + std::to_string(threads) +
                  " c=" + std::to_string(chunk));
        }
      }
    }
  }
}

TEST(ExecQueryTest, PartitionBreakerPreservesResults) {
  QueryData d(2048, 30'000);
  ScanJoinAggregatePlan plan = d.Plan();
  const auto want = MapReference(d, plan);
  for (uint32_t fanout : {1u, 7u, 64u}) {
    plan.partition_fanout = fanout;
    ExecConfig cfg;
    cfg.isa = SupportedIsas().back();
    cfg.threads = 8;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ExpectMatchesReference(got, want, "fanout=" + std::to_string(fanout));
  }
}

TEST(ExecQueryTest, CompressedStorageMatchesRawAcrossMatrix) {
  // Scan-over-compressed acceptance: the same plan over CompressColumn'd
  // base tables is byte-identical to the raw-column plan everywhere the
  // raw matrix runs — ISA x threads x chunk size x scan mode x bloom x
  // partition breaker — plus edge sizes below/at/above one block.
  QueryData d(4096, 60'000);
  const auto r_keys_c = compress::CompressColumn(d.r_keys.data(), d.n_r);
  const auto r_attrs_c = compress::CompressColumn(d.r_attrs.data(), d.n_r);
  const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
  const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
  ScanJoinAggregatePlan raw = d.Plan();
  ScanJoinAggregatePlan comp = d.Plan();
  comp.r_keys_c = &r_keys_c;
  comp.r_attrs_c = &r_attrs_c;
  comp.s_fks_c = &s_fks_c;
  comp.s_vals_c = &s_vals_c;
  for (int bloom : {0, 10}) {
    for (uint32_t fanout : {0u, 16u}) {
      raw.bloom_bits_per_key = comp.bloom_bits_per_key = bloom;
      raw.partition_fanout = comp.partition_fanout = fanout;
      for (Isa isa : SupportedIsas()) {
        for (int threads : {1, 8}) {
          for (size_t chunk : {size_t{257}, size_t{1024}}) {
            for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
              raw.scan_mode = comp.scan_mode = mode;
              ExecConfig cfg;
              cfg.isa = isa;
              cfg.isa_mode = IsaMode::kStatic;  // per-ISA sweep
              cfg.threads = threads;
              cfg.chunk_tuples = chunk;
              const QueryResult want = exec::RunScanJoinAggregate(raw, cfg);
              const QueryResult got = exec::RunScanJoinAggregate(comp, cfg);
              const std::string label =
                  "compressed " + std::string(IsaName(isa)) + " t=" +
                  std::to_string(threads) + " c=" + std::to_string(chunk) +
                  " m=" + (mode == ScanMode::kBitmap ? "bitmap" : "compact") +
                  " b=" + std::to_string(bloom) +
                  " f=" + std::to_string(fanout);
              ExpectIdentical(got, want, label);
              EXPECT_EQ(got.rows_scanned, want.rows_scanned) << label;
            }
          }
        }
      }
    }
  }
}

TEST(ExecQueryTest, CompressedStorageEdgeSizes) {
  // Sizes straddling the 1024-value block boundary, a one-side-compressed
  // plan (R raw, S compressed), and chunk sizes that split blocks.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0}, {5, 1}, {16, 1023}, {1024, 1024}, {7, 4097}};
  for (auto [nr, ns] : shapes) {
    QueryData d(nr, ns);
    const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
    const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
    ScanJoinAggregatePlan raw = d.Plan();
    raw.s_hi = 999'999;
    ScanJoinAggregatePlan comp = raw;
    comp.s_fks_c = &s_fks_c;
    comp.s_vals_c = &s_vals_c;
    const auto want = MapReference(d, raw);
    for (size_t chunk : {size_t{1}, size_t{64}, size_t{1023}}) {
      for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
        raw.scan_mode = comp.scan_mode = mode;
        ExecConfig cfg;
        cfg.isa = SupportedIsas().back();
        cfg.threads = 8;
        cfg.chunk_tuples = chunk;
        const std::string label = "nr=" + std::to_string(nr) +
                                  " ns=" + std::to_string(ns) +
                                  " c=" + std::to_string(chunk);
        const QueryResult got = exec::RunScanJoinAggregate(comp, cfg);
        ExpectMatchesReference(got, want, label);
        ExpectIdentical(got, exec::RunScanJoinAggregate(raw, cfg), label);
      }
    }
  }
}

TEST(ExecPipelineTest, ChunksPushedAndConversionCounters) {
  QueryData d(1024, 10'000);
  ScanJoinAggregatePlan plan = d.Plan();
  plan.scan_mode = ScanMode::kBitmap;
  ExecConfig cfg;
  cfg.chunk_tuples = 1024;
  obs::EnableMetrics(false);
  if (!obs::MetricsEnabled()) {  // not a metrics-forced build
    // Metrics off: the per-lane push counts are never flushed.
    obs::MetricsRegistry::Get().ResetAll();
    exec::RunScanJoinAggregate(plan, cfg);
    EXPECT_EQ(Metric("chunks_pushed"), 0u);
  }
  for (int bloom : {10, 0}) {
    ScopedMetrics metrics;
    plan.bloom_bits_per_key = bloom;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ASSERT_FALSE(got.group_keys.empty());
    // Source grids: 1 R chunk into the build staging, 10 S chunks (none
    // empty at ~10% selectivity) through bloom -> probe -> group-by. A
    // null-filter bloom stage forwards without counting a push.
    EXPECT_EQ(Metric("chunks_pushed"), bloom > 0 ? 1u + 10 * 3 : 1u + 10 * 2)
        << "bloom=" << bloom;
    EXPECT_EQ(Metric("pipelines_fused"), 2u);  // build + probe
    EXPECT_GT(Metric("exec_fused_ns"), 0u);
  }
  {
    // Empty source batches are dropped: a predicate selecting nothing in S
    // leaves only the build-side push.
    ScopedMetrics metrics;
    plan.s_lo = plan.s_hi = 1'000'000;  // above every S value
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    EXPECT_TRUE(got.group_keys.empty());
    EXPECT_EQ(Metric("chunks_pushed"), 1u);
  }
}

// ---------------------------------------------------------------------------
// Fused engine coverage of every plan shape
// ---------------------------------------------------------------------------

TEST(ExecFusedTest, FusedMatchesDynamicAcrossMatrix) {
  // ISA x threads {1, 8} x chunk {257, 1024} x scan mode x edge input
  // sizes n_s in {0, 1, 1023, 4097} plus one bulk shape: every run matches
  // the std::map reference and the hand-composed kernel sequence in every
  // result row and reported cardinality.
  const std::pair<size_t, size_t> shapes[] = {
      {256, 0}, {256, 1}, {256, 1023}, {1024, 4097}, {4096, 60'000}};
  for (auto [nr, ns] : shapes) {
    QueryData d(nr, ns);
    ScanJoinAggregatePlan plan = d.Plan();
    plan.bloom_bits_per_key = 10;
    const auto want = MapReference(d, plan);
    uint64_t want_build = 0, want_scanned = 0;
    for (size_t i = 0; i < nr; ++i) {
      want_build += d.r_keys[i] >= plan.r_lo && d.r_keys[i] <= plan.r_hi;
    }
    for (size_t i = 0; i < ns; ++i) {
      want_scanned += d.s_vals[i] >= plan.s_lo && d.s_vals[i] <= plan.s_hi;
    }
    for (Isa isa : SupportedIsas()) {
      const QueryResult hand = HandComposed(d, plan, isa);
      for (int threads : {1, 8}) {
        for (size_t chunk : {size_t{257}, size_t{1024}}) {
          for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
            plan.scan_mode = mode;
            ExecConfig cfg;
            cfg.isa = isa;
            cfg.isa_mode = IsaMode::kStatic;  // per-ISA sweep
            cfg.threads = threads;
            cfg.chunk_tuples = chunk;
            const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
            const std::string label =
                "nr=" + std::to_string(nr) + " ns=" + std::to_string(ns) +
                " " + IsaName(isa) + " t=" + std::to_string(threads) +
                " c=" + std::to_string(chunk) +
                " m=" + (mode == ScanMode::kBitmap ? "bitmap" : "compact");
            ExpectMatchesReference(got, want, label + " vs reference");
            ExpectIdentical(got, hand, label + " vs hand-composed");
            EXPECT_EQ(got.rows_build, want_build) << label;
            EXPECT_EQ(got.rows_scanned, want_scanned) << label;
            EXPECT_LE(got.rows_bloomed, got.rows_scanned) << label;
            EXPECT_GE(got.rows_bloomed, got.rows_joined) << label;
          }
        }
      }
    }
  }
}

TEST(ExecFusedTest, UnsupportedShapeFallsBackToDynamic) {
  // Every plan shape runs on the fused engine — the partitioned, bitmap
  // and compressed shapes included — and matches the reference.
  QueryData d(1024, 10'000);
  const auto r_keys_c = compress::CompressColumn(d.r_keys.data(), d.n_r);
  const auto r_attrs_c = compress::CompressColumn(d.r_attrs.data(), d.n_r);
  const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
  const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
  ScanJoinAggregatePlan base = d.Plan();
  base.bloom_bits_per_key = 10;
  const auto want = MapReference(d, base);

  struct Shape {
    const char* name;
    ScanJoinAggregatePlan plan;
    uint64_t pipelines;
  };
  std::vector<Shape> shapes{{"compact", base, 2}};
  shapes.push_back({"partitioned", base, 3});  // build, pre/post barrier
  shapes.back().plan.partition_fanout = 16;
  shapes.push_back({"bitmap", base, 2});
  shapes.back().plan.scan_mode = ScanMode::kBitmap;
  shapes.push_back({"compressed", base, 2});
  shapes.back().plan.r_keys_c = &r_keys_c;
  shapes.back().plan.r_attrs_c = &r_attrs_c;
  shapes.back().plan.s_fks_c = &s_fks_c;
  shapes.back().plan.s_vals_c = &s_vals_c;
  for (const Shape& s : shapes) {
    ScopedMetrics metrics;
    ExecConfig cfg;
    cfg.threads = 4;
    const QueryResult got = exec::RunScanJoinAggregate(s.plan, cfg);
    ExpectMatchesReference(got, want, s.name);
    EXPECT_EQ(Metric("pipelines_fused"), s.pipelines) << s.name;
    EXPECT_GT(Metric("exec_fused_ns"), 0u) << s.name;
  }
}

TEST(ExecPipelineTest, RowsOutCardinalitiesAreConsistent) {
  QueryData d(4096, 50'000);
  ScanJoinAggregatePlan plan = d.Plan();
  plan.bloom_bits_per_key = 10;
  ExecConfig cfg;
  cfg.threads = 4;
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  EXPECT_LE(got.rows_bloomed, got.rows_scanned);
  EXPECT_LE(got.rows_joined, got.rows_bloomed);  // bloom has no false negatives
  const uint64_t total_count = std::accumulate(got.counts.begin(),
                                               got.counts.end(), uint64_t{0});
  EXPECT_EQ(total_count, got.rows_joined);
}

}  // namespace
}  // namespace simddb
