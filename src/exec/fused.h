#ifndef SIMDDB_EXEC_FUSED_H_
#define SIMDDB_EXEC_FUSED_H_

// The template-fused pipeline engine — the one way src/exec runs a
// pipeline, with no JIT and no per-chunk dispatch tax.
//
// Every pipeline of a query has one compile-time shape,
//
//   source -> bloom semi-join -> hash-join probe -> sink,
//
// a FusedPipeline<kIsa, Source> whose stages hand each other a FusedBatch
// (dense column pointers + count, register-resident state, no ownership,
// no visibility machinery) through fully-inlined continuations. A null
// Bloom filter or a null table turns its stage into a forward, and the
// sink either groups (per-lane GroupByAggregator partials) or stages its
// rows into a seq-slotted breaker (FusedStaging), so the same shape
// covers every job:
//
//   build side        R scan -> staging; the staged rows become the join
//                     table and Bloom filter (RunFusedBuild);
//   probe side        S scan -> bloom -> probe -> group-by;
//   partition barrier S scan -> bloom -> staging, ParallelPartitionPass,
//                     then a dense source re-streams the partitioned rows
//                     -> probe -> group-by (query.cc);
//   shared sweep      one dispatch over a common grid calls every member's
//                     runner per chunk (shared_scan.cc).
//
// Sources: FusedScanCompact (SelectionScan kernels), FusedScanBitmap (the
// range predicate into a lane-local bitmap over the base columns, one
// fused gather of the qualifiers), FusedScanCompressed (zone-map block
// skipping over compress/column.h) and FusedScanDense (pre-filtered rows,
// base pointers handed out with no copy). Sources drop empty batches.
//
// One instantiation exists per (ISA x source), anchored in fused.cc /
// fused_avx2.cc / fused_avx512.cc so each backend's inner loops compile
// under its own ISA flags. A FusedProbeRunner type-erases one: callers pay
// one virtual call per chunk, everything inside stays inlined. A static
// run drives one runner over the whole grid; an adaptive run routes
// explore/exploit spans of the same grid across per-ISA runners.
//
// Determinism contract: every runner walks the deterministic chunk grid
// (ceil(n / chunk_tuples) chunks, ParallelFor over chunk ordinals), lanes
// own their partials, staging slots by chunk ordinal, and the group rows
// are extracted in canonical ascending-key order, so a QueryResult is
// byte-identical for every ISA, thread count, chunk size, and steal
// schedule.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "agg/group_by.h"
#include "bloom/bloom_filter.h"
#include "compress/column.h"
#include "core/isa.h"
#include "exec/chunk.h"
#include "exec/query.h"
#include "hash/linear_probing.h"
#include "scan/selection_scan.h"
#include "util/aligned_buffer.h"
#include "util/task_pool.h"

namespace simddb::exec {

/// Dense batch view handed between fused stages: up to three column
/// pointers plus a tuple count. Columns live in the producing stage's
/// per-lane scratch (or the base table), so a batch is valid only for the
/// duration of the continuation call that receives it.
struct FusedBatch {
  const uint32_t* col[3] = {nullptr, nullptr, nullptr};
  size_t n = 0;
};

/// Per-lane group-by partials, owned by the caller of a run and shared by
/// every runner of it (the adaptive variants of one query aggregate into
/// one state; spans run on distinct lanes at any instant).
using FusedPartials = std::vector<std::unique_ptr<GroupByAggregator>>;

/// Seq-slotted breaker staging: the sink of the build pipeline and of the
/// pre-barrier half of a partitioned probe. A batch lands in the slot of
/// its chunk ordinal, not of its lane (the SelectionScanParallel
/// compaction idiom), so the materialized rows are in grid order —
/// byte-identical for every thread count and steal schedule.
class FusedStaging {
 public:
  /// Sizes one chunk_tuples slot per chunk of an n-row grid (buffers
  /// placed per cfg.placement).
  void Open(const ExecConfig& cfg, size_t n);
  /// Copies batch columns 0 and 1 into `chunk`'s slot. Concurrent calls
  /// for distinct chunks are safe.
  void Put(size_t chunk, const FusedBatch& b);
  /// Closes the gaps between slots in grid order and returns the row
  /// count; keys() / pays() then hold the rows densely.
  size_t Compact();
  const uint32_t* keys() const { return keys_.data(); }
  const uint32_t* pays() const { return pays_.data(); }

 private:
  size_t slot_cap_ = 0;
  AlignedBuffer<uint32_t> keys_, pays_;
  std::vector<size_t> counts_;
};

/// Inputs of one fused pipeline: the source, and which stages act.
struct FusedProbeSpec {
  const uint32_t* keys = nullptr;  ///< batch col 0: join key (S.fk, R.pk)
  const uint32_t* pays = nullptr;  ///< batch col 1: payload (S.val, R.attr)
  /// Compressed columns (compress/column.h). When non-null they replace
  /// keys/pays: the source is FusedScanCompressed in BOTH scan modes — a
  /// compressed source has no base-table copy for the bitmap duality to
  /// elide, so the mode axis degenerates.
  const compress::CompressedColumn* keys_c = nullptr;
  const compress::CompressedColumn* pays_c = nullptr;
  size_t n = 0;
  int pred_col = 1;         ///< column the predicate filters (0 or 1)
  uint32_t lo = 0, hi = 0;  ///< inclusive range predicate
  ScanMode scan_mode = ScanMode::kCompact;
  /// Pre-filtered rows (the partition barrier's output): FusedScanDense,
  /// no predicate.
  bool dense = false;
  const BloomFilter* bloom = nullptr;         ///< null: no semi-join
  const LinearProbingTable* table = nullptr;  ///< null: no join
  /// Non-null: the sink stages columns 0 and 1 here instead of grouping
  /// columns (2, 1) of the join output.
  FusedStaging* staging = nullptr;
  size_t max_groups_hint = 1024;
};

namespace detail {

// Fused two-column gather: out{a,b}[i] = {a,b}[sel[i]] for i in [0, cnt).
// One pass over the qualifiers instead of a morsel copy plus a compaction.
// Backend TUs: fused.cc / fused_avx2.cc / fused_avx512.cc (vpgatherdd on
// both vector ISAs).
void GatherPairScalar(const uint32_t* a, const uint32_t* b,
                      const uint32_t* sel, size_t cnt, uint32_t* out_a,
                      uint32_t* out_b);
void GatherPairAvx2(const uint32_t* a, const uint32_t* b, const uint32_t* sel,
                    size_t cnt, uint32_t* out_a, uint32_t* out_b);
void GatherPairAvx512(const uint32_t* a, const uint32_t* b,
                      const uint32_t* sel, size_t cnt, uint32_t* out_a,
                      uint32_t* out_b);

inline void GatherPair(Isa isa, const uint32_t* a, const uint32_t* b,
                       const uint32_t* sel, size_t cnt, uint32_t* out_a,
                       uint32_t* out_b) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return GatherPairAvx512(a, b, sel, cnt, out_a, out_b);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return GatherPairAvx2(a, b, sel, cnt, out_a, out_b);
  }
  return GatherPairScalar(a, b, sel, cnt, out_a, out_b);
}

/// Per-lane counters, one cache line apart so concurrent lanes never
/// bounce a line (one increment per chunk, but chunks can be tiny). Plain
/// (non-atomic): each lane only touches its own slot; Total() sums them
/// after the dispatch joined.
class LaneCounter {
 public:
  void Open(int lanes) { v_.assign(static_cast<size_t>(lanes), Slot{}); }
  void Add(int lane, uint64_t n) { v_[static_cast<size_t>(lane)].v += n; }
  uint64_t Total() const {
    uint64_t t = 0;
    for (const Slot& s : v_) t += s.v;
    return t;
  }

 private:
  struct alignas(64) Slot {
    uint64_t v = 0;
  };
  std::vector<Slot> v_;
};

/// What every source shares: the deterministic chunk grid over n rows and
/// its emitted-row count.
class FusedSourceBase {
 public:
  size_t Chunks(const ExecConfig& cfg) const {
    return n_ == 0 ? 0 : (n_ + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
  }
  uint64_t rows_out() const { return rows_.Total(); }

 protected:
  explicit FusedSourceBase(size_t n) : n_(n) {}
  void OpenGrid(const ExecConfig& cfg, int lanes) {
    chunk_tuples_ = cfg.chunk_tuples;
    rows_.Open(lanes);
  }
  size_t Begin(size_t chunk) const { return chunk * chunk_tuples_; }
  size_t Size(size_t chunk) const {
    return std::min(chunk_tuples_, n_ - Begin(chunk));
  }

  size_t n_;
  size_t chunk_tuples_ = kDefaultChunkTuples;
  LaneCounter rows_;
};

/// Per-lane output columns of a filtering source.
struct LaneCols {
  AlignedBuffer<uint32_t> col[2];
  void Reset(size_t chunk_tuples) {
    col[0].Reset(ChunkCapacity(chunk_tuples));
    col[1].Reset(ChunkCapacity(chunk_tuples));
  }
  FusedBatch Batch(size_t n) const {
    FusedBatch b;
    b.col[0] = col[0].data();
    b.col[1] = col[1].data();
    b.n = n;
    return b;
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------
//
// Source interface (compile-time, no virtual calls):
//   size_t Chunks(const ExecConfig& cfg) const;
//   void Open(const ExecConfig& cfg, int lanes);
//   template <typename Next>
//   void Produce(size_t chunk, int lane, Next&& next);
// Every source emits (keys, pays) batches filtered on column pred_col.

/// Source over the paper's SelectionScan kernels: one dense batch per
/// chunk of the grid.
template <Isa kIsa>
class FusedScanCompact : public detail::FusedSourceBase {
 public:
  explicit FusedScanCompact(const FusedProbeSpec& s)
      : FusedSourceBase(s.n),
        cols_{s.keys, s.pays},
        pred_(s.pred_col),
        lo_(s.lo),
        hi_(s.hi) {}

  void Open(const ExecConfig& cfg, int lanes) {
    OpenGrid(cfg, lanes);
    lanes_.resize(static_cast<size_t>(lanes));
    for (detail::LaneCols& l : lanes_) l.Reset(chunk_tuples_);
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    detail::LaneCols& l = lanes_[static_cast<size_t>(lane)];
    const size_t b = Begin(chunk);
    const int p = pred_;
    const size_t cnt = SelectionScan(
        ScanVariantForIsa(kIsa), cols_[p] + b, cols_[1 - p] + b, Size(chunk),
        lo_, hi_, l.col[p].data(), l.col[1 - p].data(), l.col[p].size());
    rows_.Add(lane, cnt);
    next(l.Batch(cnt));
  }

 private:
  const uint32_t* cols_[2];
  int pred_;
  uint32_t lo_, hi_;
  std::vector<detail::LaneCols> lanes_;
};

/// Source for the bitmap-duality plan shape: the range predicate is
/// evaluated into a lane-local bitmap directly over the base columns (no
/// morsel copy), converted to a selection vector once, and both columns
/// are gathered from the base table in a single fused pass.
template <Isa kIsa>
class FusedScanBitmap : public detail::FusedSourceBase {
 public:
  explicit FusedScanBitmap(const FusedProbeSpec& s)
      : FusedSourceBase(s.n),
        cols_{s.keys, s.pays},
        pred_(s.pred_col),
        lo_(s.lo),
        hi_(s.hi) {}

  void Open(const ExecConfig& cfg, int lanes) {
    OpenGrid(cfg, lanes);
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      l.out.Reset(chunk_tuples_);
      l.sel.Reset(ChunkCapacity(chunk_tuples_));
      l.bitmap.Reset(ChunkBitmapWords(chunk_tuples_) + 1);
    }
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const size_t b = Begin(chunk);
    const size_t sz = Size(chunk);
    const size_t n_bits = RangePredicateBitmap(kIsa, cols_[pred_] + b, sz,
                                               lo_, hi_, l.bitmap.data());
    size_t cnt = 0;
    if (n_bits != 0) {
      cnt = BitmapToSelection(kIsa, l.bitmap.data(), sz, l.sel.data());
      assert(cnt == n_bits);
      detail::GatherPair(kIsa, cols_[0] + b, cols_[1] + b, l.sel.data(), cnt,
                         l.out.col[0].data(), l.out.col[1].data());
    }
    rows_.Add(lane, cnt);
    next(l.out.Batch(cnt));
  }

 private:
  struct Lane {
    detail::LaneCols out;
    AlignedBuffer<uint32_t> sel;
    AlignedBuffer<uint64_t> bitmap;
  };
  const uint32_t* cols_[2];
  int pred_;
  uint32_t lo_, hi_;
  std::vector<Lane> lanes_;
};

/// Source over compressed base columns, emitting the batches
/// FusedScanCompact would for the decompressed columns. Per chunk it walks
/// the overlapped 1024-value blocks and classifies each against the
/// predicate via the FOR-domain zone map (compress::ClassifyBlock): skipped
/// blocks contribute nothing without their packed bytes being read,
/// all-pass blocks decode straight into the batch columns with no
/// per-value predicate evaluation, and mixed blocks decode into per-lane
/// scratch (cached by block id, so sub-block chunk grids do not re-decode)
/// and run SelectionScan on the just-unpacked values.
template <Isa kIsa>
class FusedScanCompressed : public detail::FusedSourceBase {
 public:
  explicit FusedScanCompressed(const FusedProbeSpec& s)
      : FusedSourceBase(s.keys_c->size()),
        cols_{s.keys_c, s.pays_c},
        pred_(s.pred_col),
        lo_(s.lo),
        hi_(s.hi) {
    assert(cols_[0]->size() == cols_[1]->size());
  }

  void Open(const ExecConfig& cfg, int lanes) {
    OpenGrid(cfg, lanes);
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      l.out.Reset(chunk_tuples_);
      for (int c = 0; c < 2; ++c) {
        l.buf[c].Reset(compress::PackedCapacity(compress::kBlockTuples));
        l.block[c] = SIZE_MAX;
      }
    }
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const int p = pred_;
    const compress::CompressedColumn& pc = *cols_[p];
    uint32_t* out[2] = {l.out.col[0].data(), l.out.col[1].data()};
    const size_t cap = l.out.col[0].size();
    const size_t end = Begin(chunk) + Size(chunk);
    size_t cnt = 0;
    for (size_t pos = Begin(chunk); pos < end;) {
      const size_t b = pos / compress::kBlockTuples;
      const size_t block_base = b * compress::kBlockTuples;
      const size_t off = pos - block_base;
      const size_t take = std::min(end, block_base + pc.block_rows(b)) - pos;
      const compress::BlockClass cls =
          compress::ClassifyBlock(pc.block_meta(b), lo_, hi_);
      if (cls == compress::BlockClass::kSkip) {
        compress::BlocksSkipped().Add(1);
      } else if (cls == compress::BlockClass::kAllPass) {
        // Every value qualifies: decode becomes the emit. A whole in-chunk
        // block decodes straight into the batch (the PackedCapacity
        // overshoot lands in the column slack); partial overlaps go
        // through the block cache.
        compress::BlocksAllPass().Add(1);
        for (int c = 0; c < 2; ++c) {
          if (take == pc.block_rows(b)) {
            cols_[c]->DecodeBlock(kIsa, b, out[c] + cnt, cap - cnt);
          } else {
            std::memcpy(out[c] + cnt, Decoded(l, c, b) + off,
                        take * sizeof(uint32_t));
          }
        }
        cnt += take;
      } else {
        cnt += SelectionScan(ScanVariantForIsa(kIsa), Decoded(l, p, b) + off,
                             Decoded(l, 1 - p, b) + off, take, lo_, hi_,
                             out[p] + cnt, out[1 - p] + cnt, cap - cnt);
      }
      pos += take;
    }
    rows_.Add(lane, cnt);
    next(l.out.Batch(cnt));
  }

 private:
  struct Lane {
    detail::LaneCols out;            // batch columns
    AlignedBuffer<uint32_t> buf[2];  // decoded-block cache per column
    size_t block[2] = {SIZE_MAX, SIZE_MAX};
  };

  const uint32_t* Decoded(Lane& l, int c, size_t b) {
    if (l.block[c] != b) {
      cols_[c]->DecodeBlock(kIsa, b, l.buf[c].data(), l.buf[c].size());
      l.block[c] = b;
    }
    return l.buf[c].data();
  }

  const compress::CompressedColumn* cols_[2];
  int pred_;
  uint32_t lo_, hi_;
  std::vector<Lane> lanes_;
};

/// Source over pre-filtered rows (the partition barrier's output): each
/// batch points straight into the columns, no copy and no predicate. The
/// columns must carry ChunkCapacity slack past n, like any batch column.
class FusedScanDense : public detail::FusedSourceBase {
 public:
  explicit FusedScanDense(const FusedProbeSpec& s)
      : FusedSourceBase(s.n), cols_{s.keys, s.pays} {}

  void Open(const ExecConfig& cfg, int lanes) { OpenGrid(cfg, lanes); }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    FusedBatch out;
    out.col[0] = cols_[0] + Begin(chunk);
    out.col[1] = cols_[1] + Begin(chunk);
    out.n = Size(chunk);
    rows_.Add(lane, out.n);
    next(out);
  }

 private:
  const uint32_t* cols_[2];
};

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// Bloom semi-join. A null filter (bloom disabled, or empty build side)
/// forwards the batch untouched — a predicted branch per chunk, not a
/// virtual call. Vector probes emit qualifiers out of input order within a
/// batch, as documented for BloomFilter::Probe.
template <Isa kIsa>
class FusedBloomProbe {
 public:
  explicit FusedBloomProbe(const BloomFilter* filter) : filter_(filter) {}

  bool forwards() const { return filter_ == nullptr; }

  void Open(const ExecConfig& cfg, int lanes) {
    rows_.Open(lanes);
    if (forwards()) return;
    lanes_.resize(static_cast<size_t>(lanes));
    for (detail::LaneCols& l : lanes_) l.Reset(cfg.chunk_tuples);
  }

  template <typename Next>
  void Process(const FusedBatch& in, int lane, Next&& next) {
    if (forwards()) {
      rows_.Add(lane, in.n);
      next(in);
      return;
    }
    detail::LaneCols& l = lanes_[static_cast<size_t>(lane)];
    const size_t cnt = filter_->Probe(kIsa, in.col[0], in.col[1], in.n,
                                      l.col[0].data(), l.col[1].data());
    rows_.Add(lane, cnt);
    next(l.Batch(cnt));
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  const BloomFilter* filter_;
  std::vector<detail::LaneCols> lanes_;
  detail::LaneCounter rows_;
};

/// Hash-join probe over the build side's table: (key, val) batches become
/// (key, s_val, r_attr) batches, one row per match (build keys unique —
/// key/FK join, so matches never exceed the batch). A null table (the
/// staging pipelines) forwards the batch untouched.
template <Isa kIsa>
class FusedJoinProbe {
 public:
  explicit FusedJoinProbe(const LinearProbingTable* table) : table_(table) {}

  bool forwards() const { return table_ == nullptr; }

  void Open(const ExecConfig& cfg, int lanes) {
    rows_.Open(lanes);
    if (forwards()) return;
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      for (auto& c : l.col) c.Reset(ChunkCapacity(cfg.chunk_tuples));
    }
  }

  template <typename Next>
  void Process(const FusedBatch& in, int lane, Next&& next) {
    if (forwards()) {
      next(in);
      return;
    }
    Lane& l = lanes_[static_cast<size_t>(lane)];
    FusedBatch out;
    out.n = table_->Probe(kIsa, in.col[0], in.col[1], in.n, l.col[0].data(),
                          l.col[1].data(), l.col[2].data());
    assert(out.n <= l.col[0].size());
    for (int c = 0; c < 3; ++c) out.col[c] = l.col[c].data();
    rows_.Add(lane, out.n);
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct Lane {
    AlignedBuffer<uint32_t> col[3];
  };
  const LinearProbingTable* table_;
  std::vector<Lane> lanes_;
  detail::LaneCounter rows_;
};

/// Terminal stage: stages (col 0, col 1) into a breaker, or accumulates
/// group-by key col 2 / value col 1 into the lane's partial — the
/// canonical group rows are extracted after the run.
template <Isa kIsa>
class FusedSink {
 public:
  FusedSink(const FusedProbeSpec& spec, FusedPartials* partials)
      : staging_(spec.staging),
        partials_(partials),
        max_groups_hint_(spec.max_groups_hint) {}

  void Open(const ExecConfig& cfg, int lanes) {
    if (staging_ != nullptr) return;
    FusedPartials& p = *partials_;
    if (p.size() < static_cast<size_t>(lanes)) {
      p.resize(static_cast<size_t>(lanes));
    }
    // Only fill null slots: every runner of one run shares the partials.
    for (auto& q : p) {
      if (q == nullptr) {
        q = std::make_unique<GroupByAggregator>(max_groups_hint_, cfg.seed);
      }
    }
  }

  void Consume(const FusedBatch& in, int lane, size_t chunk) {
    if (staging_ != nullptr) {
      staging_->Put(chunk, in);
    } else {
      (*partials_)[static_cast<size_t>(lane)]->Accumulate(kIsa, in.col[2],
                                                          in.col[1], in.n);
    }
  }

 private:
  FusedStaging* staging_;
  FusedPartials* partials_;
  size_t max_groups_hint_;
};

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

/// Row and batch counts of one runner after its run.
struct FusedCounts {
  uint64_t rows_scanned = 0;  ///< source output
  uint64_t rows_bloomed = 0;  ///< bloom stage output
  uint64_t rows_joined = 0;   ///< join probe output
  /// Batches handed to a stage that does work (forwarding stages and
  /// dropped empty source batches do not count): `chunks_pushed`.
  uint64_t pushes = 0;
};

/// Type-erased handle to one (ISA, source) pipeline instantiation.
class FusedProbeRunner {
 public:
  virtual ~FusedProbeRunner() = default;
  /// Sizes the per-lane state for the source's whole grid; runs nothing.
  virtual void Prepare(const ExecConfig& cfg) = 0;
  /// Runs one chunk on an explicit lane of a caller-owned dispatch (the
  /// lane must come from that dispatch, or concurrent lanes would share
  /// per-lane state).
  virtual void RunChunk(size_t chunk, int lane) = 0;
  virtual size_t n_chunks() const = 0;
  /// Lanes the Prepare-time state covers: the dispatch's worker cap.
  virtual int lanes() const = 0;
  virtual FusedCounts counts() const = 0;
};

/// The compile-time pipeline: source -> bloom -> join -> sink, every hand-off
/// an inlined continuation.
template <Isa kIsa, typename Source>
class FusedPipeline final : public FusedProbeRunner {
 public:
  FusedPipeline(const FusedProbeSpec& spec, FusedPartials* partials)
      : source_(spec),
        bloom_(spec.bloom),
        join_(spec.table),
        sink_(spec, partials) {}

  void Prepare(const ExecConfig& cfg) override {
    n_chunks_ = source_.Chunks(cfg);
    lanes_ = std::max(1, TaskPool::LaneCount(n_chunks_, cfg.threads));
    source_.Open(cfg, lanes_);
    bloom_.Open(cfg, lanes_);
    join_.Open(cfg, lanes_);
    sink_.Open(cfg, lanes_);
    pushes_.Open(lanes_);
  }

  void RunChunk(size_t chunk, int lane) override {
    source_.Produce(chunk, lane, [&](const FusedBatch& s) {
      if (s.n == 0) return;  // nothing downstream could do work
      if (!bloom_.forwards()) pushes_.Add(lane, 1);
      bloom_.Process(s, lane, [&](const FusedBatch& b) {
        if (!join_.forwards()) pushes_.Add(lane, 1);
        join_.Process(b, lane, [&](const FusedBatch& j) {
          pushes_.Add(lane, 1);
          sink_.Consume(j, lane, chunk);
        });
      });
    });
  }

  size_t n_chunks() const override { return n_chunks_; }
  int lanes() const override { return lanes_; }
  FusedCounts counts() const override {
    return {source_.rows_out(), bloom_.rows_out(), join_.rows_out(),
            pushes_.Total()};
  }

 private:
  Source source_;
  FusedBloomProbe<kIsa> bloom_;
  FusedJoinProbe<kIsa> join_;
  FusedSink<kIsa> sink_;
  detail::LaneCounter pushes_;
  size_t n_chunks_ = 0;
  int lanes_ = 1;
};

/// Builds the runner for one compile-time ISA with the given scan
/// representation (overrides spec.scan_mode — adaptive runs route per
/// ISA). Instantiated in the per-ISA TUs.
template <Isa kIsa>
std::unique_ptr<FusedProbeRunner> MakeFusedProbeRunner(
    const FusedProbeSpec& spec, ScanMode scan_mode, FusedPartials* partials) {
  if (spec.dense) {
    return std::make_unique<FusedPipeline<kIsa, FusedScanDense>>(spec,
                                                                 partials);
  }
  if (spec.keys_c != nullptr) {
    return std::make_unique<FusedPipeline<kIsa, FusedScanCompressed<kIsa>>>(
        spec, partials);
  }
  if (scan_mode == ScanMode::kBitmap) {
    return std::make_unique<FusedPipeline<kIsa, FusedScanBitmap<kIsa>>>(
        spec, partials);
  }
  return std::make_unique<FusedPipeline<kIsa, FusedScanCompact<kIsa>>>(
      spec, partials);
}

extern template std::unique_ptr<FusedProbeRunner>
MakeFusedProbeRunner<Isa::kScalar>(const FusedProbeSpec&, ScanMode,
                                   FusedPartials*);
extern template std::unique_ptr<FusedProbeRunner>
MakeFusedProbeRunner<Isa::kAvx2>(const FusedProbeSpec&, ScanMode,
                                 FusedPartials*);
extern template std::unique_ptr<FusedProbeRunner>
MakeFusedProbeRunner<Isa::kAvx512>(const FusedProbeSpec&, ScanMode,
                                   FusedPartials*);

/// Runtime-ISA entry to the instantiations (one switch per runner).
std::unique_ptr<FusedProbeRunner> MakeFusedProbeRunner(
    Isa isa, const FusedProbeSpec& spec, ScanMode scan_mode,
    FusedPartials* partials);

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Runs one fused pipeline over spec's whole grid and counts
/// `pipelines_fused`: one cfg.isa runner, or — with cfg.dispatcher set —
/// explore/exploit spans routed across the per-ISA runners. Fills the
/// cardinalities and, unless the spec stages, the canonical group rows
/// (rows_build is the caller's).
QueryResult RunFusedProbePipeline(const FusedProbeSpec& spec,
                                  const ExecConfig& cfg);

/// Sums the runners' counts into res, flushes their pushes into
/// `chunks_pushed` (once, only when metrics are on), and extracts the
/// canonical ascending-key group rows from `partials` when non-null.
void FinishFusedRun(Isa isa,
                    std::span<const std::unique_ptr<FusedProbeRunner>> runners,
                    FusedPartials* partials, QueryResult* res);

/// The build side of a plan.
struct FusedBuild {
  /// The staged build rows. Kept for the query's lifetime: freed mid-query
  /// they leave a free block at the heap top that glibc trims, and the next
  /// query page-faults its table and filter in afresh (measured on the
  /// 1%-selectivity query bench rows: ~7 instead of ~5 ms per query).
  FusedStaging staging;
  std::unique_ptr<LinearProbingTable> table;
  std::unique_ptr<BloomFilter> bloom;  ///< null: disabled or empty build
  size_t rows = 0;
};

/// Runs the plan's build pipeline — R scan -> staging, statically on the
/// anchor ISA — then builds the join table (2x buckets, interleaved) and
/// the optional Bloom filter from the staged rows. Under cfg.dispatcher
/// the table insert runs in chunk-sized blocks through the kBuild
/// schedule.
FusedBuild RunFusedBuild(const ScanJoinAggregatePlan& plan,
                         const ExecConfig& cfg);

/// The plan's probe-side spec over its build side: S scan -> [bloom] ->
/// join probe -> group-by.
FusedProbeSpec ProbeSpec(const ScanJoinAggregatePlan& plan,
                         const FusedBuild& build);

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_FUSED_H_
