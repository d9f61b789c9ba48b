#include "exec/adaptive.h"

#include <algorithm>
#include <cassert>

namespace simddb::exec {
namespace {

// Registry keeps raw pointers, so instruments must have static storage.
obs::Counter g_switches("adaptive_switches");
obs::Counter g_explore_chunks("explore_chunks");

// Per-kind chosen-variant histogram: one counter per (kind, isa[, scan
// mode]) cell, bumped once per chunk (or build block) that ran the variant.
obs::Counter g_fused_scalar_compact("chosen_fused_scalar_compact");
obs::Counter g_fused_scalar_bitmap("chosen_fused_scalar_bitmap");
obs::Counter g_fused_avx2_compact("chosen_fused_avx2_compact");
obs::Counter g_fused_avx2_bitmap("chosen_fused_avx2_bitmap");
obs::Counter g_fused_avx512_compact("chosen_fused_avx512_compact");
obs::Counter g_fused_avx512_bitmap("chosen_fused_avx512_bitmap");
obs::Counter g_build_scalar("chosen_build_scalar");
obs::Counter g_build_avx2("chosen_build_avx2");
obs::Counter g_build_avx512("chosen_build_avx512");

obs::Counter* ChosenCounter(OpKind kind, const AdaptiveVariant& v) {
  const int i = static_cast<int>(v.isa);
  if (kind == OpKind::kBuild) {
    static obs::Counter* const t[3] = {&g_build_scalar, &g_build_avx2,
                                       &g_build_avx512};
    return t[i];
  }
  static obs::Counter* const t[3][2] = {
      {&g_fused_scalar_compact, &g_fused_scalar_bitmap},
      {&g_fused_avx2_compact, &g_fused_avx2_bitmap},
      {&g_fused_avx512_compact, &g_fused_avx512_bitmap}};
  return t[i][v.scan_mode == ScanMode::kBitmap];
}

// AdaptiveDecisions cell of a variant.
int IsaCell(const AdaptiveVariant& v) { return static_cast<int>(v.isa); }
int ModeCell(const AdaptiveVariant& v) {
  return v.scan_mode == ScanMode::kBitmap ? 1 : 0;
}

}  // namespace

AdaptiveDecisions AdaptiveState::Load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

void AdaptiveState::Publish(const AdaptiveDecisions& d) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int k = 0; k < kNumOpKinds; ++k) {
    if (d.ops[k].valid) decisions_.ops[k] = d.ops[k];
  }
  ++queries_;
}

uint64_t AdaptiveState::queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_;
}

std::string AdaptiveVariantName(OpKind kind, const AdaptiveVariant& v) {
  // Strip the "chosen_" prefix: the STATS names and the counters agree.
  return ChosenCounter(kind, v)->name() + 7;
}

AdaptiveDispatcher::AdaptiveDispatcher(const ExecConfig& cfg,
                                       ScanMode plan_scan_mode) {
  seed_ = cfg.seed;
  rotate_for_testing_ = cfg.adaptive.rotate_for_testing;
  // ISA candidates, static choice first so variant 0 == static dispatch and
  // the pre-timing winner is exactly what IsaMode::kStatic would have run.
  std::vector<Isa> isas{cfg.isa};
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (isa != cfg.isa && IsaSupported(isa)) isas.push_back(isa);
  }
  for (int k = 0; k < kNumOpKinds; ++k) {
    OpState& s = ops_[k];
    for (Isa isa : isas) s.variants.push_back({isa, plan_scan_mode});
    s.stats = std::vector<VariantStats>(s.variants.size());
    // The fused probe paces its own schedule and never calls Acquire.
    if (static_cast<OpKind>(k) == OpKind::kBuild) {
      s.explore_len = std::max<uint32_t>(cfg.adaptive.explore_chunks, 1);
      s.exploit_len = std::max<uint32_t>(cfg.adaptive.exploit_chunks, 1);
    }
  }
  if (cfg.adaptive_state != nullptr) Seed(cfg.adaptive_state->Load());
}

void AdaptiveDispatcher::Seed(const AdaptiveDecisions& prior) {
  for (int k = 0; k < kNumOpKinds; ++k) {
    const AdaptiveDecisions::Op& p = prior.ops[k];
    if (!p.valid) continue;
    OpState& s = ops_[k];
    for (size_t i = 0; i < s.variants.size(); ++i) {
      const AdaptiveVariant& v = s.variants[i];
      s.stats[i].ns.store(p.ns[IsaCell(v)][ModeCell(v)],
                          std::memory_order_relaxed);
      s.stats[i].tuples.store(p.tuples[IsaCell(v)][ModeCell(v)],
                              std::memory_order_relaxed);
      if (v.isa == p.winner.isa && v.scan_mode == p.winner.scan_mode) {
        s.winner.store(static_cast<int>(i), std::memory_order_relaxed);
        s.warm = true;
      }
    }
    // A persisted winner this query cannot run (variants carry the plan's
    // scan mode, which may differ) leaves the kind cold.
    if (!s.warm) continue;
    s.exploit_span = p.exploit_span;
    // kBuild: one timed block per variant per round suffices when the
    // decayed history supplies the rest of the evidence.
    if (static_cast<OpKind>(k) == OpKind::kBuild) s.explore_len = 1;
  }
}

AdaptiveDecisions AdaptiveDispatcher::Export() const {
  AdaptiveDecisions out;
  for (int k = 0; k < kNumOpKinds; ++k) {
    const OpState& s = ops_[k];
    if (s.seq.load(std::memory_order_relaxed) == 0 &&
        !s.reported.load(std::memory_order_relaxed)) {
      continue;  // this query never ran the kind
    }
    AdaptiveDecisions::Op& o = out.ops[k];
    o.valid = true;
    o.winner = s.variants[static_cast<size_t>(
        s.winner.load(std::memory_order_relaxed))];
    for (size_t i = 0; i < s.variants.size(); ++i) {
      const AdaptiveVariant& v = s.variants[i];
      o.ns[IsaCell(v)][ModeCell(v)] =
          s.stats[i].ns.load(std::memory_order_relaxed);
      o.tuples[IsaCell(v)][ModeCell(v)] =
          s.stats[i].tuples.load(std::memory_order_relaxed);
    }
    o.exploit_span = s.exploit_span;
  }
  return out;
}

AdaptiveDispatcher::Ticket AdaptiveDispatcher::Acquire(OpKind kind) {
  OpState& s = ops_[static_cast<int>(kind)];
  const uint64_t v = static_cast<uint64_t>(s.variants.size());
  Ticket t;
  if (v <= 1) {
    // One variant: nothing to time, nothing to switch.
    ChosenCounter(kind, s.variants[0])->Add(1);
    return t;
  }
  const uint64_t explore_span = v * s.explore_len;
  const uint64_t round_len = explore_span + s.exploit_len;
  const uint64_t pos_total = s.seq.fetch_add(1, std::memory_order_relaxed);
  const uint64_t round = pos_total / round_len;
  const uint64_t pos = pos_total % round_len;
  if (pos == 0) {
    // New round: decay the accumulated samples (halve, don't reset). One
    // explore window is a small noisy sample, so the decision blends fresh
    // evidence with a geometrically-fading history; a real phase flip still
    // overturns the history within a couple of rounds. Lanes still
    // reporting the old round race benignly — timing noise, never
    // correctness.
    for (VariantStats& st : s.stats) {
      st.ns.store(st.ns.load(std::memory_order_relaxed) / 2,
                  std::memory_order_relaxed);
      st.tuples.store(st.tuples.load(std::memory_order_relaxed) / 2,
                      std::memory_order_relaxed);
    }
  }
  if (pos < explore_span) {
    // Rotate the explore order by round and seed: the first-explored
    // variant pays any cold-cache cost, so it must not always be the same.
    t.variant = static_cast<int>((pos / s.explore_len + round + seed_) % v);
    t.explore = true;
    g_explore_chunks.Add(1);
  } else {
    if (pos == explore_span) DecideWinner(s, kind, round);
    t.variant = s.winner.load(std::memory_order_relaxed);
  }
  ChosenCounter(kind, s.variants[static_cast<size_t>(t.variant)])->Add(1);
  return t;
}

void AdaptiveDispatcher::Report(OpKind kind, int variant, uint64_t ns,
                                uint64_t tuples) {
  OpState& s = ops_[static_cast<int>(kind)];
  VariantStats& st = s.stats[static_cast<size_t>(variant)];
  // Empty chunks cost ~0ns on every variant; clamp so they cannot divide
  // the round's cost estimate by zero.
  const uint64_t tu = tuples < 1 ? 1 : tuples;
  // Outlier clamp: on a shared host a single preemption (tens of µs to ms)
  // landing inside one timed chunk would otherwise poison the variant's
  // whole round — and, with decay, the next couple of decisions. Once a
  // variant has enough history to know its own scale, cap each sample at
  // 8x its historical per-tuple cost: real variant gaps are a few x, so
  // the clamp only ever bites on scheduling noise.
  const uint64_t hist_ns = st.ns.load(std::memory_order_relaxed);
  const uint64_t hist_tu = st.tuples.load(std::memory_order_relaxed);
  if (hist_tu >= 4 && hist_ns > 0) {
    const double cap =
        8.0 * static_cast<double>(hist_ns) / static_cast<double>(hist_tu) *
        static_cast<double>(tu);
    if (static_cast<double>(ns) > cap) ns = static_cast<uint64_t>(cap);
  }
  st.ns.fetch_add(ns, std::memory_order_relaxed);
  st.tuples.fetch_add(tu, std::memory_order_relaxed);
  if (!s.reported.load(std::memory_order_relaxed)) {
    s.reported.store(true, std::memory_order_relaxed);
  }
}

bool AdaptiveDispatcher::DecideWinner(OpState& s, OpKind kind,
                                      uint64_t round) {
  // First lane past the explore span of this round decides; later lanes of
  // the same round see decided_round already advanced and keep the winner.
  uint64_t expected = s.decided_round.load(std::memory_order_relaxed);
  if (expected > round ||
      !s.decided_round.compare_exchange_strong(expected, round + 1,
                                               std::memory_order_relaxed)) {
    return false;
  }
  const int v = static_cast<int>(s.variants.size());
  const int old_winner = s.winner.load(std::memory_order_relaxed);
  int best = old_winner;
  if (rotate_for_testing_) {
    // Deterministic test schedule: force a different winner every round so
    // the byte-identity matrix provably crosses a switch inside a morsel
    // grid regardless of real kernel timings.
    best = static_cast<int>(round % static_cast<uint64_t>(v));
  } else {
    double best_cost = -1.0;
    double incumbent_cost = -1.0;
    for (int i = 0; i < v; ++i) {
      const uint64_t ns = s.stats[i].ns.load(std::memory_order_relaxed);
      const uint64_t tu = s.stats[i].tuples.load(std::memory_order_relaxed);
      if (tu == 0) continue;  // no sample yet: not eligible
      const double cost = static_cast<double>(ns) / static_cast<double>(tu);
      if (i == old_winner) incumbent_cost = cost;
      if (best_cost < 0.0 || cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    // Hysteresis: a challenger must beat the incumbent by >10% to take
    // over. Variants that genuinely tie (tiny kernel inputs at very low
    // selectivity) must not flip-flop on measurement jitter.
    if (best != old_winner && incumbent_cost >= 0.0 &&
        best_cost > 0.9 * incumbent_cost) {
      best = old_winner;
    }
  }
  if (best != old_winner) {
    s.winner.store(best, std::memory_order_relaxed);
    switches_.fetch_add(1, std::memory_order_relaxed);
    g_switches.Add(1);
  }
  (void)kind;
  return true;
}

int AdaptiveDispatcher::DecideAndGetWinner(OpKind kind, uint64_t round) {
  OpState& s = ops_[static_cast<int>(kind)];
  if (DecideWinner(s, kind, round)) {
    // This call closed round `round`: decay the samples so the next round
    // blends fresh evidence with a halved history — the same per-round
    // blending Acquire's pos==0 path applies to the chunk-paced kinds.
    // Lanes still reporting this round's explore chunks race benignly.
    for (VariantStats& st : s.stats) {
      st.ns.store(st.ns.load(std::memory_order_relaxed) / 2,
                  std::memory_order_relaxed);
      st.tuples.store(st.tuples.load(std::memory_order_relaxed) / 2,
                      std::memory_order_relaxed);
    }
  }
  return s.winner.load(std::memory_order_relaxed);
}

void AdaptiveDispatcher::CountChosen(OpKind kind, int variant,
                                     uint64_t chunks) {
  OpState& s = ops_[static_cast<int>(kind)];
  ChosenCounter(kind, s.variants[static_cast<size_t>(variant)])->Add(chunks);
}

void AdaptiveDispatcher::CountExplored(uint64_t chunks) {
  g_explore_chunks.Add(chunks);
}

}  // namespace simddb::exec
