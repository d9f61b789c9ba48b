// Extension benchmark: end-to-end composed query through the fused engine
// (src/exec/). The plan is TPC-H Q3 shaped — filter a 128K-row dimension R
// on its key range, hash-build, filter a 2M-row fact S on a value
// predicate, bloom-prefilter the foreign keys, probe, and group the join
// output by R's attribute with SUM/COUNT/MIN/MAX — the same pipeline every
// operator bench measures in isolation, now paying the real batch
// hand-off and breaker costs between them.
//
// Sweep: isa {scalar, avx2, avx512} x S selectivity {ramp, 1%, 10%, 50%} x
// threads {1, 8} x mode. The mode argument keeps the values earlier sweeps
// registered, so committed rows and gate regexes still match:
//
//   1  fused           the fused engine at one static ISA;
//   2  hand            the serial hand-composed kernel sequence — no
//                      executor at all, the lower bound the engine chases.
//                      Registered at threads = 1 only (the sequence runs
//                      serially);
//   4  adaptive_fused  the engine under IsaMode::kAdaptive — explore/
//                      exploit spans routed across the per-ISA pipeline
//                      instantiations (isa=adaptive in the label).
//
// Selectivity 0 is the phase-changing input: S values ramp linearly with
// row position, so under the fixed predicate the per-chunk qualifier
// density slides from 100% down to 0% across the table — the input no
// static ISA choice is right for, and the one the adaptive gate requires
// `adaptive_switches >= 1` on.
//
// Under --metrics (or the metrics-forced CI build) each row carries the
// engine's observability instruments — chunks_pushed, pipelines_fused, the
// whole-query exec_fused_ns timer, and the adaptive instruments
// (adaptive_switches, explore_chunks, chosen_* histogram) — which
// check_bench_ranges.py gates structurally (static rows) and as the
// adaptive-vs-best-static cross-row comparison (adaptive rows).

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "agg/group_by.h"
#include "bench/bench_common.h"
#include "bloom/bloom_filter.h"
#include "compress/column.h"
#include "exec/query.h"
#include "hash/linear_probing.h"
#include "scan/selection_scan.h"
#include "util/rng.h"

namespace simddb::bench {
namespace {

constexpr size_t kRTuples = size_t{128} << 10;  // dimension: 128K rows
constexpr size_t kSTuples = size_t{2} << 20;    // fact: 2M rows
constexpr uint32_t kValMax = 999'999;

enum ExecMode : int {
  kModeFused = 1,
  kModeHand = 2,
  kModeAdaptiveFused = 4,  // IsaMode::kAdaptive
};

/// Selectivity axis sentinel: 0 selects the phase-changing ramp input.
constexpr uint32_t kSelRamp = 0;

/// The plan hand-composed from the operator kernels, serial: scan R, build,
/// scan S, bloom, probe, aggregate — the kernel sequence with zero executor
/// machinery between stages (mirrors HandComposed in tests/exec_test.cc).
size_t HandComposedQ3(const exec::ScanJoinAggregatePlan& p, Isa isa) {
  const ScanVariant v = exec::ScanVariantForIsa(isa);
  AlignedBuffer<uint32_t> rk(SelectionScanCapacity(p.n_r)),
      ra(SelectionScanCapacity(p.n_r));
  const size_t n_build = SelectionScan(v, p.r_keys, p.r_attrs, p.n_r, p.r_lo,
                                       p.r_hi, rk.data(), ra.data(),
                                       rk.size());
  size_t buckets = 16;
  while (buckets < 2 * (n_build + 1)) buckets <<= 1;
  LinearProbingTable table(buckets);
  table.Build(isa, rk.data(), ra.data(), n_build);
  BloomFilter filter =
      BloomFilter::ForItems(n_build, p.bloom_bits_per_key, p.bloom_k, 42);
  filter.Add(rk.data(), n_build);

  AlignedBuffer<uint32_t> sv(SelectionScanCapacity(p.n_s)),
      sf(SelectionScanCapacity(p.n_s));
  size_t n_sel = SelectionScan(v, p.s_vals, p.s_fks, p.n_s, p.s_lo, p.s_hi,
                               sv.data(), sf.data(), sv.size());
  AlignedBuffer<uint32_t> bf(n_sel + 16), bv(n_sel + 16);
  n_sel = filter.Probe(isa, sf.data(), sv.data(), n_sel, bf.data(), bv.data());
  AlignedBuffer<uint32_t> jk(n_sel + 16), jsp(n_sel + 16), jrp(n_sel + 16);
  const size_t n_join = table.Probe(isa, bf.data(), bv.data(), n_sel,
                                    jk.data(), jsp.data(), jrp.data());
  GroupByAggregator agg(p.max_groups_hint);
  agg.Accumulate(isa, jrp.data(), jsp.data(), n_join);
  return agg.num_groups();
}

void BM_ExecQuery(benchmark::State& state) {
  const Isa isa = static_cast<Isa>(state.range(0));
  const uint32_t sel_pct = static_cast<uint32_t>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  const int mode = static_cast<int>(state.range(3));
  if (!RequireIsa(state, isa)) return;

  // R keys must be unique for the PK-FK join: sequential 1..kRTuples.
  static AlignedBuffer<uint32_t>* r_keys = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillSequential(b->data(), kRTuples, 1);
    return b;
  }();
  static AlignedBuffer<uint32_t>* r_attrs = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillUniform(b->data(), kRTuples, 5, 1, 1024);
    return b;
  }();
  const auto& s = KeyPayColumns::Get(kSTuples, 1,
                                     static_cast<uint32_t>(kRTuples), 6);
  static AlignedBuffer<uint32_t>* s_vals = [] {
    auto* b = new AlignedBuffer<uint32_t>(kSTuples + 16);
    FillUniform(b->data(), kSTuples, 7, 0, kValMax);
    return b;
  }();
  // Phase-changing input: values ramp linearly with row position, so the
  // fixed `val <= kValMax/2` predicate below qualifies ~100% of early
  // chunks and ~0% of late ones — the per-chunk selectivity slides through
  // the scalar/vector crossover mid-query.
  static AlignedBuffer<uint32_t>* s_vals_ramp = [] {
    auto* b = new AlignedBuffer<uint32_t>(kSTuples + 16);
    for (size_t i = 0; i < kSTuples; ++i) {
      b->data()[i] =
          static_cast<uint32_t>(uint64_t{kValMax + 1} * i / kSTuples);
    }
    return b;
  }();

  exec::ScanJoinAggregatePlan plan;
  plan.r_keys = r_keys->data();
  plan.r_attrs = r_attrs->data();
  plan.n_r = kRTuples;
  plan.r_lo = 1;
  plan.r_hi = static_cast<uint32_t>((3 * kRTuples) / 4);  // keep 75% of R
  plan.s_fks = s.keys.data();
  plan.s_vals = sel_pct == kSelRamp ? s_vals_ramp->data() : s_vals->data();
  plan.n_s = kSTuples;
  plan.s_lo = 0;
  // sel% of S for the uniform inputs; the ramp keeps ~50% overall but
  // distributes it as a 100% -> 0% per-chunk density slide.
  plan.s_hi = sel_pct == kSelRamp
                  ? kValMax / 2
                  : static_cast<uint32_t>(
                        (uint64_t{kValMax} + 1) * sel_pct / 100 - 1);
  plan.bloom_bits_per_key = 10;
  plan.max_groups_hint = 2048;

  const bool adaptive = mode == kModeAdaptiveFused;
  exec::ExecConfig cfg;
  // Adaptive rows anchor cfg.isa at the widest supported backend (variant 0
  // of every schedule = the static choice); the dispatcher re-times the
  // rest on live chunks.
  cfg.isa = adaptive ? BestIsa() : isa;
  cfg.threads = threads;
  cfg.isa_mode = adaptive ? exec::IsaMode::kAdaptive : exec::IsaMode::kStatic;

  size_t groups = 0;
  for (auto _ : state) {
    if (mode == kModeHand) {
      groups = HandComposedQ3(plan, isa);
      continue;
    }
    exec::QueryResult res = exec::RunScanJoinAggregate(plan, cfg);
    groups = res.group_keys.size();
    benchmark::DoNotOptimize(res.sums.data());
  }
  // Throughput over the fact table: the fact scan dominates the input.
  SetTuplesPerSecond(state, static_cast<double>(kSTuples));
  const char* variant = mode == kModeHand    ? "query_q3_hand"
                        : mode == kModeFused ? "query_q3_fused"
                                             : "query_q3_adaptive_fused";
  state.SetLabel(std::string(variant) +
                 " isa=" + (adaptive ? "adaptive" : IsaName(isa)) +
                 " sel=" + std::to_string(sel_pct) +
                 " threads=" + std::to_string(threads) +
                 " groups=" + std::to_string(groups));
}

// {isa, S selectivity % (0 = ramp), threads, mode}. Fixed iterations so the
// counter totals are comparable across variants; wall-clock since the work
// spans lanes. The hand-composed mode is serial by construction, so it
// registers at threads = 1 only; the adaptive modes pick their own ISA, so
// they register once (isa arg 0, overridden to BestIsa inside).
//
// Registration order groups each (sel, threads) cell's static rows with the
// adaptive rows the baseline gate compares them against, so the pair is
// measured seconds — not minutes — apart. On a shared host the ambient load
// drifts by tens of percent across a full sweep, which used to dominate the
// adaptive-vs-best-static ratios; run order is the controllable half of
// that noise.
BENCHMARK(BM_ExecQuery)
    ->ArgsProduct({{0, 1, 2}, {0}, {1}, {kModeFused}})
    ->ArgsProduct({{0}, {0}, {1}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {0}, {8}, {kModeFused}})
    ->ArgsProduct({{0}, {0}, {8}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {1}, {1}, {kModeFused}})
    ->ArgsProduct({{0}, {1}, {1}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {1}, {8}, {kModeFused}})
    ->ArgsProduct({{0}, {1}, {8}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {10}, {1}, {kModeFused}})
    ->ArgsProduct({{0}, {10}, {1}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {10}, {8}, {kModeFused}})
    ->ArgsProduct({{0}, {10}, {8}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {50}, {1}, {kModeFused}})
    ->ArgsProduct({{0}, {50}, {1}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {50}, {8}, {kModeFused}})
    ->ArgsProduct({{0}, {50}, {8}, {kModeAdaptiveFused}})
    ->ArgsProduct({{0, 1, 2}, {1, 10, 50}, {1}, {kModeHand}})
    // 40 fixed iterations: on this shared host the ambient load arrives in
    // bursts comparable to a 10-iteration window, so the cross-row ratio
    // gates need each row to average over several bursts. Counter gates are
    // per-iteration or min-only, so the count is free to change.
    ->Iterations(40)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Compressed storage axis: the same Q3 plan over CompressColumn'd S base
// tables (scan-over-compressed, src/compress/) vs the raw columns. Args
// {isa, sel code, threads, storage 0=raw/1=packed}.
//
// Sel codes reuse the BM_ExecQuery meanings (0 = ramp, 1 = 1% uniform) and
// add 77 = block-clustered: every 1024-row block of S draws both columns
// from a narrow 128-value window whose value base ramps across the domain —
// the layout FOR compression exists for. Clustered rows carry the footprint
// counters the >= 4x gate divides (compress_packed_bytes /
// compress_raw_bytes), and under the 1% predicate their zone maps skip
// ~99% of blocks, which is what makes the compressed-not-slower compare
// gate hold: the scan classifies most blocks from metadata alone and never
// touches their packed bytes, while the raw baseline streams all 16 MB.
// Ramp rows gate the skip protocol itself (blocks_skipped /
// blocks_all_pass / bytes_unpacked): the predicate keeps the first half of
// the value blocks entirely (decode-as-emit) and skips the second half.
constexpr uint32_t kSelClustered = 77;

void BM_ExecQueryCompressed(benchmark::State& state) {
  const Isa isa = static_cast<Isa>(state.range(0));
  const uint32_t sel_code = static_cast<uint32_t>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  const bool compressed = state.range(3) != 0;
  if (!RequireIsa(state, isa)) return;

  static AlignedBuffer<uint32_t>* r_keys = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillSequential(b->data(), kRTuples, 1);
    return b;
  }();
  static AlignedBuffer<uint32_t>* r_attrs = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillUniform(b->data(), kRTuples, 5, 1, 1024);
    return b;
  }();

  struct SColumns {
    AlignedBuffer<uint32_t> fks, vals;
    compress::CompressedColumn fks_c, vals_c;
  };
  static SColumns* s_uniform = [] {
    auto* s = new SColumns;
    s->fks.Reset(kSTuples + 16);
    s->vals.Reset(kSTuples + 16);
    FillUniform(s->fks.data(), kSTuples, 6, 1,
                static_cast<uint32_t>(kRTuples));
    FillUniform(s->vals.data(), kSTuples, 7, 0, kValMax);
    s->fks_c = compress::CompressColumn(s->fks.data(), kSTuples);
    s->vals_c = compress::CompressColumn(s->vals.data(), kSTuples);
    return s;
  }();
  static SColumns* s_ramp = [] {
    auto* s = new SColumns;
    s->fks.Reset(kSTuples + 16);
    s->vals.Reset(kSTuples + 16);
    FillUniform(s->fks.data(), kSTuples, 6, 1,
                static_cast<uint32_t>(kRTuples));
    for (size_t i = 0; i < kSTuples; ++i) {
      s->vals.data()[i] =
          static_cast<uint32_t>(uint64_t{kValMax + 1} * i / kSTuples);
    }
    s->fks_c = compress::CompressColumn(s->fks.data(), kSTuples);
    s->vals_c = compress::CompressColumn(s->vals.data(), kSTuples);
    return s;
  }();
  static SColumns* s_clustered = [] {
    auto* s = new SColumns;
    s->fks.Reset(kSTuples + 16);
    s->vals.Reset(kSTuples + 16);
    Pcg32 rng(8);
    const size_t n_blocks =
        (kSTuples + compress::kBlockTuples - 1) / compress::kBlockTuples;
    for (size_t i = 0; i < kSTuples; ++i) {
      const size_t block = i / compress::kBlockTuples;
      // FK locality: each block references a 128-key neighborhood of R.
      s->fks.data()[i] = 1 +
                         static_cast<uint32_t>((block * 677) %
                                               (kRTuples - 128)) +
                         rng.NextBounded(128);
      // Value locality: 128-wide window whose base ramps across the domain,
      // so per-block zone maps are tight and widths are 7 bits.
      s->vals.data()[i] =
          static_cast<uint32_t>(uint64_t{kValMax + 1 - 128} * block /
                                n_blocks) +
          rng.NextBounded(128);
    }
    s->fks_c = compress::CompressColumn(s->fks.data(), kSTuples);
    s->vals_c = compress::CompressColumn(s->vals.data(), kSTuples);
    return s;
  }();

  const SColumns& s = sel_code == kSelRamp        ? *s_ramp
                      : sel_code == kSelClustered ? *s_clustered
                                                  : *s_uniform;

  exec::ScanJoinAggregatePlan plan;
  plan.r_keys = r_keys->data();
  plan.r_attrs = r_attrs->data();
  plan.n_r = kRTuples;
  plan.r_lo = 1;
  plan.r_hi = static_cast<uint32_t>((3 * kRTuples) / 4);
  plan.s_fks = s.fks.data();
  plan.s_vals = s.vals.data();
  plan.n_s = kSTuples;
  plan.s_lo = 0;
  // The ramp keeps its ~50% predicate; clustered rows run the 1% predicate
  // (1% of the value domain ~= 1% of the blocks, the skip showcase).
  plan.s_hi = sel_code == kSelRamp
                  ? kValMax / 2
                  : static_cast<uint32_t>((uint64_t{kValMax} + 1) *
                                              (sel_code == kSelClustered
                                                   ? 1
                                                   : sel_code) /
                                              100 -
                                          1);
  plan.bloom_bits_per_key = 10;
  plan.max_groups_hint = 2048;
  if (compressed) {
    plan.s_fks_c = &s.fks_c;
    plan.s_vals_c = &s.vals_c;
  }

  exec::ExecConfig cfg;
  cfg.isa = isa;
  cfg.isa_mode = exec::IsaMode::kStatic;  // each row measures one ISA
  cfg.threads = threads;

  size_t groups = 0;
  for (auto _ : state) {
    exec::QueryResult res = exec::RunScanJoinAggregate(plan, cfg);
    groups = res.group_keys.size();
    benchmark::DoNotOptimize(res.sums.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kSTuples));
  if (compressed) {
    // Static storage properties, not per-iteration deltas: the footprint
    // gate divides them directly (S payload+meta over S raw bytes).
    state.counters["compress_packed_bytes"] = benchmark::Counter(
        static_cast<double>(s.fks_c.packed_bytes() + s.vals_c.packed_bytes()));
    state.counters["compress_raw_bytes"] = benchmark::Counter(
        static_cast<double>(s.fks_c.raw_bytes() + s.vals_c.raw_bytes()));
  }
  state.SetLabel(std::string(compressed ? "query_q3_compressed"
                                        : "query_q3_raw") +
                 " isa=" + IsaName(isa) +
                 " sel=" + std::to_string(sel_code) +
                 " threads=" + std::to_string(threads) +
                 " storage=" + (compressed ? "packed" : "raw") +
                 " groups=" + std::to_string(groups));
}

// {isa, sel code (0 = ramp, 1 = 1% uniform, 77 = clustered), threads,
// storage}. Raw/packed pairs register adjacently per cell so the
// compressed-vs-raw compare gates measure them seconds apart (same
// rationale as the adaptive pairing above).
BENCHMARK(BM_ExecQueryCompressed)
    ->ArgsProduct({{0, 2}, {0}, {1}, {0, 1}})
    ->ArgsProduct({{0, 2}, {0}, {8}, {0, 1}})
    ->ArgsProduct({{0, 2}, {1}, {1}, {0, 1}})
    ->ArgsProduct({{0, 2}, {1}, {8}, {0, 1}})
    ->ArgsProduct({{0, 2}, {77}, {1}, {0, 1}})
    ->ArgsProduct({{0, 2}, {77}, {8}, {0, 1}})
    ->Iterations(40)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
