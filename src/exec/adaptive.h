#ifndef SIMDDB_EXEC_ADAPTIVE_H_
#define SIMDDB_EXEC_ADAPTIVE_H_

// Micro-adaptive operator selection (Vectorwise-style micro-adaptivity).
//
// BENCH_query.json shows the static per-query ISA choice is a real
// performance bug: gather/compress-heavy kernels (bloom probe, join probe)
// invert their scalar-vs-vector ranking with input selectivity — at 50%
// fact selectivity the AVX2 bloom probe is >2x slower than scalar, while at
// 1-10% it wins — exactly the input dependence the source paper predicts.
// No plan-time choice is right for a phase-changing input, so the executor
// re-times its variants on live chunks and switches mid-query.
//
// The AdaptiveDispatcher keeps one schedule per adaptive kind:
//
//   kFusedWindow  the fused probe pipeline, routed per chunk span across
//                 its per-ISA instantiations (fused.cc RunAdaptive);
//   kBuild        the build-side table insert, re-timed in chunk-sized
//                 blocks (fused.cc RunFusedBuild) — historically the
//                 slowest phase of the AVX-512 anchor.
//
// Each schedule cycles through rounds of
//
//   explore:  K chunks (blocks) per variant, timed (obs::ThreadCpuNs
//             around the kernel call only — CPU time, so a preempted lane
//             doesn't charge the stall to the variant it was running),
//             accumulated as ns/tuple per variant;
//   exploit:  M chunks (blocks) on the round's winner, untimed.
//
// Variants are {scalar, AVX2, AVX-512} filtered by host capability; every
// variant carries the plan's scan mode (each fused variant is a whole
// pipeline instantiation whose per-lane state must be Prepared every query
// and explored every round, so the representation axis is not routed).
// Re-exploring every round tracks phase changes (selectivity ramps,
// clustered keys); the explore order rotates by round and by cfg.seed so
// repeated runs do not always charge the same variant for the cold chunk.
// Timing statistics DECAY at round boundaries (halved, not reset): a single
// explore window is a small, noisy sample, so the winner decision weighs
// fresh evidence against a geometrically-fading history instead of betting
// M chunks on two measurements. A phase flip still overturns the history
// within ~2 rounds. The incumbent winner also gets 10% hysteresis:
// near-equal variants (common at very low selectivity, where every kernel
// sees a handful of tuples) must not flip-flop on measurement jitter.
// Individual samples are clamped at 8x the variant's historical per-tuple
// cost — on a shared host one preemption inside a timed chunk would
// otherwise poison a whole round's decision.
//
// The build-side scan is not routed: it runs the anchor ISA (see
// RunFusedBuild).
//
// Correctness is free: every variant of every kind produces the same
// canonical result by construction (the exec_test.cc / exec_adaptive_test.cc
// matrices prove byte-identity across ISAs, scan modes, threads, and chunk
// sizes), so the dispatcher can switch on any chunk boundary — including in
// the middle of a morsel-parallel ParallelFor — without any barrier. All
// dispatcher state is relaxed atomics: concurrent lanes may race on the
// timing statistics, which can only perturb *which* variant wins, never what
// the query returns (benign by design, and clean under TSan).
//
// Observability: `adaptive_switches` counts winner changes, `explore_chunks`
// counts timed chunks, and the per-kind `chosen_<kind>_<variant>` counters
// histogram which variant each chunk (block) actually ran — all exported
// into bench JSONL rows by the registry like every other instrument.
//
// Decisions outlive the query when ExecConfig::adaptive_state is set (the
// server's QueryScheduler keeps one AdaptiveState per bound key). The
// dispatcher is *seeded* from the state when it is constructed — each
// kind's winner, its decayed per-variant ns/tuple samples, and the exploit
// span the self-paced fused schedule had grown to — and *publishes* its own
// decisions back when the query ends. Seed and publish each take the
// state's mutex once per query; in between the dispatcher is private to
// its query, so concurrent queries on one key never share an atomic on the
// hot path. A seeded (warm) kind starts where the last query left off: the
// fused driver opens with the grown exploit span instead of 16 chunks, and
// the block-paced build kind times one block per variant per explore round
// instead of explore_chunks, the decayed history standing in for the rest
// of the sample. Every query still runs at least one explore round per
// kind, so a selectivity shift between queries is caught by the first
// round.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/isa.h"
#include "exec/query.h"
#include "obs/metrics.h"

namespace simddb::exec {

/// Kinds with their own adaptive schedule. kFusedWindow is self-paced: the
/// fused probe (fused.cc) precomputes its round/span structure, runs the
/// whole grid in one dispatch, and resolves each exploit span's winner
/// lazily via DecideAndGetWinner. kBuild claims one Acquire slot per
/// block; the blocks run sequentially in seq order, so switching the ISA
/// per block never reorders insertions.
enum class OpKind : int { kFusedWindow = 0, kBuild = 1 };
inline constexpr int kNumOpKinds = 2;

/// One selectable implementation of a kind: an ISA, carrying the plan's
/// scan mode unchanged.
struct AdaptiveVariant {
  Isa isa = Isa::kScalar;
  ScanMode scan_mode = ScanMode::kCompact;
};

/// What a key's adaptive schedules have learned, per operator kind: the
/// unit an AdaptiveState stores, a dispatcher is seeded from, and a
/// finished query exports. Samples are kept per (ISA, scan mode) cell, not
/// per variant index, because a dispatcher's variant order depends on its
/// query's anchor ISA and plan scan mode.
struct AdaptiveDecisions {
  struct Op {
    bool valid = false;      ///< some query on the key has run this kind
    AdaptiveVariant winner;  ///< the exploit choice that query ended on
    /// Decayed explore samples, [isa][scan mode]: ns and tuples summed.
    uint64_t ns[3][2] = {};
    uint64_t tuples[3][2] = {};
    /// Exploit-span length (chunks) a self-paced schedule grew to; 0 for
    /// kBuild, whose exploit length is fixed.
    uint64_t exploit_span = 0;
  };
  Op ops[kNumOpKinds];
};

/// Adaptive decisions that persist across the queries of one key. Load
/// seeds a new query's dispatcher; Publish merges a finished query back.
/// Both lock one mutex, once per query each.
class AdaptiveState {
 public:
  AdaptiveDecisions Load() const;
  /// Each kind the query ran replaces the stored entry — the query was
  /// seeded from that entry, so its samples already carry the decayed
  /// history. Kinds it did not run (the build insert of an empty build
  /// side) keep theirs. When two queries on one key
  /// overlap, the later publisher's view of a kind wins.
  void Publish(const AdaptiveDecisions& d);
  /// Queries that have published into this state.
  uint64_t queries() const;

 private:
  mutable std::mutex mu_;
  AdaptiveDecisions decisions_;
  uint64_t queries_ = 0;
};

/// "<op>_<isa>[_<scan mode>]", the suffix of the variant's chosen_*
/// counter (e.g. "fused_avx512_compact", "build_scalar").
std::string AdaptiveVariantName(OpKind kind, const AdaptiveVariant& v);

class AdaptiveDispatcher {
 public:
  /// Builds the per-kind variant lists from the host's supported ISAs.
  /// Variant 0 of every kind is the static choice (cfg.isa, plan scan
  /// mode), so the initial winner before any timing equals static dispatch
  /// — unless cfg.adaptive_state seeds a persisted winner and samples.
  AdaptiveDispatcher(const ExecConfig& cfg, ScanMode plan_scan_mode);

  /// This query's decisions, for AdaptiveState::Publish. Kinds the query
  /// never ran are left invalid.
  AdaptiveDecisions Export() const;

  /// True when a persisted decision seeded this kind's schedule.
  bool warm(OpKind kind) const { return ops_[static_cast<int>(kind)].warm; }
  /// Exploit-span length the kind's self-paced schedule starts from (the
  /// persisted one when warm, else 0) and, once set_exploit_span recorded
  /// it, the length this query grew to.
  uint64_t exploit_span(OpKind kind) const {
    return ops_[static_cast<int>(kind)].exploit_span;
  }
  void set_exploit_span(OpKind kind, uint64_t chunks) {
    ops_[static_cast<int>(kind)].exploit_span = chunks;
  }

  struct Ticket {
    int variant = 0;    ///< index into variants(kind)
    bool explore = false;  ///< true: caller times the kernel and Reports
  };

  /// Claims the next schedule slot for one block of a block-paced kind
  /// (kBuild). Thread-safe.
  Ticket Acquire(OpKind kind);

  /// Records an explore measurement. `tuples` normalizes the cost (chunk
  /// sizes differ at grid tails); pass the kernel's input tuple count, or
  /// the window's chunk count for kFusedWindow.
  void Report(OpKind kind, int variant, uint64_t ns, uint64_t tuples);

  /// Deterministic explore-slot variant for schedules the caller paces
  /// itself (the fused driver precomputes its whole round/span structure
  /// and runs it in one dispatch, so it cannot thread Acquire's positional
  /// counter through the lanes). Same rotation as Acquire's explore slots.
  int ExploreVariant(OpKind kind, uint64_t round, int slot) const {
    const OpState& s = ops_[static_cast<int>(kind)];
    const uint64_t v = static_cast<uint64_t>(s.variants.size());
    if (v <= 1) return 0;
    return static_cast<int>((static_cast<uint64_t>(slot) + round + seed_) % v);
  }

  /// Decides round `round`'s winner from the samples reported so far and
  /// returns it; idempotent per round (first caller decides, later callers
  /// read). The stats decay happens here — once per decided round — so a
  /// self-paced schedule gets the same halve-per-round blending Acquire's
  /// pos==0 path gives kBuild.
  int DecideAndGetWinner(OpKind kind, uint64_t round);

  /// Bumps the chosen-variant histogram: self-paced schedules count their
  /// own chunks (Acquire does this for kBuild).
  void CountChosen(OpKind kind, int variant, uint64_t chunks);
  /// Bumps the explore_chunks instrument for self-paced explore work.
  void CountExplored(uint64_t chunks);

  const AdaptiveVariant& variant(OpKind kind, int v) const {
    return ops_[static_cast<int>(kind)].variants[static_cast<size_t>(v)];
  }
  int num_variants(OpKind kind) const {
    return static_cast<int>(ops_[static_cast<int>(kind)].variants.size());
  }
  /// The current exploit choice (for tests and diagnostics).
  const AdaptiveVariant& current(OpKind kind) const {
    const OpState& s = ops_[static_cast<int>(kind)];
    return s.variants[static_cast<size_t>(
        s.winner.load(std::memory_order_relaxed))];
  }
  uint64_t switches() const {
    return switches_.load(std::memory_order_relaxed);
  }

 private:
  struct VariantStats {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> tuples{0};
    VariantStats() = default;
    VariantStats(const VariantStats&) {}
  };
  struct OpState {
    std::vector<AdaptiveVariant> variants;
    std::vector<VariantStats> stats;  ///< current round's explore samples
    std::atomic<uint64_t> seq{0};     ///< schedule position (chunks/windows)
    std::atomic<int> winner{0};
    std::atomic<uint64_t> decided_round{0};  ///< last round a winner was picked
    /// Set by the first Report: a self-paced kind ran even if no exploit
    /// span ever decided (grids shorter than one explore round).
    std::atomic<bool> reported{false};
    /// Schedule lengths in Acquire units: explore_len slots per variant,
    /// then exploit_len slots on the winner.
    uint32_t explore_len = 1;
    uint32_t exploit_len = 1;
    bool warm = false;          ///< seeded from a persisted decision
    uint64_t exploit_span = 0;  ///< see exploit_span()
  };

  /// Starts each kind the state has decided on from its persisted winner,
  /// samples and exploit span.
  void Seed(const AdaptiveDecisions& prior);

  /// Returns true when this call won the once-per-round decision race.
  bool DecideWinner(OpState& s, OpKind kind, uint64_t round);

  OpState ops_[kNumOpKinds];
  uint64_t seed_ = 0;
  bool rotate_for_testing_ = false;
  std::atomic<uint64_t> switches_{0};
};

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_ADAPTIVE_H_
