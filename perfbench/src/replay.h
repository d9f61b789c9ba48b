#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// In-process replay of one pool line through the public functions of each
// layer, in the order a query blocks on them, with a span around every
// call (trace.h):
//
//   replay.query                                   root, one per request
//     net.parse        net::ParseRequest + net::ToSpec
//     server.bind      server::BindQuery
//     exec.query       exec::RunScanJoinAggregate, server default config
//     hash.build       LinearProbingTable construction + Build
//       compress.unpack  (packed) DecodeBlock of the R blocks the window keeps
//       scan.select_build  SelectionScan of R keys over the r window
//     scan.select      SelectionScan of S values over the s window
//       compress.unpack  (packed) ClassifyBlock + DecodeBlock of S blocks
//     hash.probe       LinearProbingTable::Probe of the selected S rows
//     hash.release     the table's destruction
//     agg.groupby      GroupByAggregator Accumulate + Extract, key order
//     net.encode       net::AppendRow per group + net::AppendQueryOk
//     net.decode       net::DecodeRow per frame + net::DecodeQueryOk
//     obs.snapshot     registry snapshots around exec.query (metrics on)
//
// The kernels run at the server's default ISA. Both the executor's rows
// and the rows the composed kernels produce are checked against the
// reference, so the replay is also a second correctness probe.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/query.h"
#include "net/protocol.h"
#include "server/catalog.h"
#include "trace.h"
#include "util/aligned_buffer.h"
#include "workload.h"

namespace perfbench {

struct ReplayResult {
  simddb::exec::QueryResult exec;  ///< RunScanJoinAggregate's result
  uint64_t chunks_pushed = 0;      ///< registry delta over exec.query
  uint64_t bytes_unpacked = 0;     ///< registry delta over exec.query
  size_t s_blocks = 0;             ///< S value blocks (packed storage)
  size_t s_blocks_skipped = 0;     ///< of which ClassifyBlock skipped
  size_t selected = 0;             ///< S rows the composed scan kept
  size_t joined = 0;               ///< probe matches
  bool ok = false;                 ///< every result equals the reference
  std::string error;               ///< first difference when !ok
};

class Replayer {
 public:
  /// `max_selected` bounds the S rows any pool line selects (the largest
  /// reference rows_scanned); buffers are sized from it once.
  Replayer(const simddb::server::Catalog* catalog, const WorkloadSpec& w,
           const simddb::exec::ExecConfig& cfg, size_t max_selected);

  ReplayResult Run(const PoolLine& line,
                   const simddb::exec::QueryResult& reference,
                   uint64_t request, SpanLog* log);

 private:
  const simddb::server::Catalog* catalog_;
  simddb::exec::ExecConfig cfg_;
  // Decoded packed columns (R keys/attrs, S vals/fks).
  simddb::AlignedBuffer<uint32_t> r_dec_keys_, r_dec_attrs_;
  simddb::AlignedBuffer<uint32_t> s_dec_vals_, s_dec_fks_;
  // Scan outputs and probe outputs.
  simddb::AlignedBuffer<uint32_t> r_sel_keys_, r_sel_attrs_;
  simddb::AlignedBuffer<uint32_t> s_sel_vals_, s_sel_fks_;
  simddb::AlignedBuffer<uint32_t> out_fks_, out_vals_, out_attrs_;
  size_t r_cap_ = 0, s_cap_ = 0, sel_cap_ = 0;
  std::string wire_;
  std::vector<simddb::net::WireRow> decoded_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
