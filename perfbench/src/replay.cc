#include "replay.h"

#include <algorithm>
#include <numeric>

#include "agg/group_by.h"
#include "compress/column.h"
#include "compress/pack.h"
#include "hash/linear_probing.h"
#include "obs/metrics.h"
#include "scan/selection_scan.h"
#include "server/scheduler.h"

namespace perfbench {
namespace {

using simddb::compress::BlockClass;
using simddb::compress::ClassifyBlock;
using simddb::compress::CompressedColumn;

constexpr size_t kSlack = 16;

// Decodes the blocks of `filter` that a [lo, hi] window does not skip,
// together with the same blocks of `other`, into contiguous buffers.
// Returns the decoded row count; counts blocks and skipped blocks.
size_t DecodeKept(simddb::Isa isa, const CompressedColumn& filter,
                  const CompressedColumn& other, uint32_t lo, uint32_t hi,
                  uint32_t* filter_out, uint32_t* other_out, size_t capacity,
                  size_t* blocks, size_t* skipped) {
  size_t n = 0;
  *blocks = filter.num_blocks();
  *skipped = 0;
  for (size_t b = 0; b < filter.num_blocks(); ++b) {
    if (ClassifyBlock(filter.block_meta(b), lo, hi) == BlockClass::kSkip) {
      ++*skipped;
      continue;
    }
    filter.DecodeBlock(isa, b, filter_out + n, capacity - n);
    other.DecodeBlock(isa, b, other_out + n, capacity - n);
    n += filter.block_rows(b);
  }
  return n;
}

}  // namespace

Replayer::Replayer(const simddb::server::Catalog* catalog,
                   const WorkloadSpec& w, const simddb::exec::ExecConfig& cfg,
                   size_t max_selected)
    : catalog_(catalog), cfg_(cfg) {
  r_cap_ = simddb::compress::PackedCapacity(w.r_rows) + kSlack;
  s_cap_ = simddb::compress::PackedCapacity(w.s_rows) + kSlack;
  sel_cap_ = max_selected + kSlack;
  if (w.packed) {
    r_dec_keys_.Reset(r_cap_);
    r_dec_attrs_.Reset(r_cap_);
    s_dec_vals_.Reset(s_cap_);
    s_dec_fks_.Reset(s_cap_);
  }
  r_sel_keys_.Reset(simddb::SelectionScanCapacity(w.r_rows));
  r_sel_attrs_.Reset(simddb::SelectionScanCapacity(w.r_rows));
  s_sel_vals_.Reset(simddb::SelectionScanCapacity(w.s_rows));
  s_sel_fks_.Reset(simddb::SelectionScanCapacity(w.s_rows));
  out_fks_.Reset(sel_cap_);
  out_vals_.Reset(sel_cap_);
  out_attrs_.Reset(sel_cap_);
  decoded_.reserve(kGroups + 1);
}

ReplayResult Replayer::Run(const PoolLine& line,
                           const simddb::exec::QueryResult& reference,
                           uint64_t request, SpanLog* log) {
  using namespace simddb;
  ReplayResult out;
  const Isa isa = EffectiveIsa(cfg_.isa);
  const ScanVariant variant = exec::ScanVariantForIsa(isa);
  exec::QueryResult kernels;  // the composed kernels' canonical result
  {
    ScopedSpan root(log, "replay.query", request);

    net::Request req;
    net::ParseError perr;
    server::QuerySpec spec;
    bool parsed = false;
    {
      ScopedSpan s(log, "net.parse", request);
      parsed = net::ParseRequest(line.text, &req, &perr);
      if (parsed) spec = net::ToSpec(req.query);
    }
    if (!parsed || req.cmd != net::Command::kQuery) {
      out.error = "pool line does not parse: " + net::FormatParseError(perr);
      return out;
    }

    exec::ScanJoinAggregatePlan plan;
    std::string bind_error;
    bool bound = false;
    {
      ScopedSpan s(log, "server.bind", request);
      bound = server::BindQuery(*catalog_, spec, &plan, &bind_error);
    }
    if (!bound) {
      out.error = "bind failed: " + bind_error;
      return out;
    }

    std::map<std::string, uint64_t> before;
    {
      ScopedSpan s(log, "obs.snapshot", request);
      before = obs::SnapshotMap();
    }
    {
      ScopedSpan s(log, "exec.query", request);
      out.exec = exec::RunScanJoinAggregate(plan, cfg_);
    }
    {
      ScopedSpan s(log, "obs.snapshot", request);
      const std::map<std::string, uint64_t> grown = obs::DeltaSince(before);
      const auto count = [&](const char* name) {
        const auto it = grown.find(name);
        return it == grown.end() ? uint64_t{0} : it->second;
      };
      out.chunks_pushed = count("chunks_pushed");
      out.bytes_unpacked = count("bytes_unpacked");
      before.clear();
    }

    const bool packed = plan.s_vals_c != nullptr;
    std::unique_ptr<LinearProbingTable> table;
    {
      ScopedSpan s(log, "hash.build", request);
      const uint32_t* r_keys = plan.r_keys;
      const uint32_t* r_attrs = plan.r_attrs;
      size_t n_r = plan.n_r;
      if (packed) {
        ScopedSpan u(log, "compress.unpack", request);
        size_t blocks = 0, skipped = 0;
        n_r = DecodeKept(isa, *plan.r_keys_c, *plan.r_attrs_c, plan.r_lo,
                         plan.r_hi, r_dec_keys_.data(), r_dec_attrs_.data(),
                         r_cap_, &blocks, &skipped);
        r_keys = r_dec_keys_.data();
        r_attrs = r_dec_attrs_.data();
      }
      size_t n_build = 0;
      {
        ScopedSpan sc(log, "scan.select_build", request);
        n_build = SelectionScan(variant, r_keys, r_attrs, n_r, plan.r_lo,
                                plan.r_hi, r_sel_keys_.data(),
                                r_sel_attrs_.data(), r_sel_keys_.size());
      }
      table = std::make_unique<LinearProbingTable>(BuildTableBuckets(n_build),
                                                   cfg_.seed);
      table->Build(isa, r_sel_keys_.data(), r_sel_attrs_.data(), n_build);
    }

    {
      ScopedSpan s(log, "scan.select", request);
      const uint32_t* s_vals = plan.s_vals;
      const uint32_t* s_fks = plan.s_fks;
      size_t n_s = plan.n_s;
      if (packed) {
        ScopedSpan u(log, "compress.unpack", request);
        n_s = DecodeKept(isa, *plan.s_vals_c, *plan.s_fks_c, plan.s_lo,
                         plan.s_hi, s_dec_vals_.data(), s_dec_fks_.data(),
                         s_cap_, &out.s_blocks, &out.s_blocks_skipped);
        s_vals = s_dec_vals_.data();
        s_fks = s_dec_fks_.data();
      }
      out.selected = SelectionScan(variant, s_vals, s_fks, n_s, plan.s_lo,
                                   plan.s_hi, s_sel_vals_.data(),
                                   s_sel_fks_.data(), s_sel_vals_.size());
    }
    if (out.selected > sel_cap_) {
      out.error = "selected rows exceed the reference bound";
      return out;
    }

    {
      ScopedSpan s(log, "hash.probe", request);
      out.joined = table->Probe(isa, s_sel_fks_.data(), s_sel_vals_.data(),
                                out.selected, out_fks_.data(), out_vals_.data(),
                                out_attrs_.data());
    }
    {
      ScopedSpan s(log, "hash.release", request);
      table.reset();
    }

    {
      ScopedSpan s(log, "agg.groupby", request);
      GroupByAggregator agg(plan.max_groups_hint, cfg_.seed);
      agg.Accumulate(isa, out_attrs_.data(), out_vals_.data(), out.joined);
      const size_t g = agg.num_groups();
      std::vector<uint32_t> keys(g), counts(g), mins(g), maxs(g);
      std::vector<uint64_t> sums(g);
      agg.Extract(isa, keys.data(), sums.data(), counts.data(), mins.data(),
                  maxs.data());
      std::vector<uint32_t> order(g);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
      for (uint32_t i : order) {
        kernels.group_keys.push_back(keys[i]);
        kernels.sums.push_back(sums[i]);
        kernels.counts.push_back(counts[i]);
        kernels.mins.push_back(mins[i]);
        kernels.maxs.push_back(maxs[i]);
      }
    }

    {
      ScopedSpan s(log, "net.encode", request);
      wire_.clear();
      const exec::QueryResult& r = out.exec;
      for (size_t i = 0; i < r.group_keys.size(); ++i) {
        net::AppendRow(&wire_, r.group_keys[i], r.sums[i], r.counts[i],
                       r.mins[i], r.maxs[i]);
      }
      net::AppendQueryOk(&wire_, r.group_keys.size(), server::QueryStats{});
    }

    {
      ScopedSpan s(log, "net.decode", request);
      decoded_.clear();
      net::WireResult trailer;
      size_t pos = 0;
      while (pos < wire_.size()) {
        const size_t nl = wire_.find('\n', pos);
        const std::string_view frame(wire_.data() + pos, nl - pos);
        pos = nl + 1;
        net::WireRow row;
        if (net::ClassifyFrame(frame) == net::FrameKind::kRow &&
            net::DecodeRow(frame, &row)) {
          decoded_.push_back(row);
        } else {
          net::DecodeQueryOk(frame, &trailer);
        }
      }
    }
  }

  // Checks, outside the spans.
  std::string why;
  std::vector<net::WireRow> kernel_rows;
  for (size_t i = 0; i < kernels.group_keys.size(); ++i) {
    kernel_rows.push_back({kernels.group_keys[i], kernels.sums[i],
                           kernels.counts[i], kernels.mins[i],
                           kernels.maxs[i]});
  }
  if (!SameRows(reference, decoded_, &why)) {
    out.error = "executor result: " + why;
  } else if (!SameRows(reference, kernel_rows, &why)) {
    out.error = "composed kernels: " + why;
  } else if (out.selected != reference.rows_scanned ||
             out.joined != reference.rows_joined) {
    out.error = "composed kernels: row counts differ from the reference";
  } else {
    out.ok = true;
  }
  return out;
}

}  // namespace perfbench
