#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workloads of the serving benchmark: what each one generates from its
// seed (tables and a pool of QUERY lines), how the tables are registered
// in the server's catalog, and the in-process reference result every wire
// response is compared against.
//
// All lines of one pool share the window widths and differ in the window
// offsets, so every query of a workload does the same amount of work on
// different data. No line carries isa=: the server's default backend and
// pipeline mode are what the benchmark measures.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/query.h"
#include "net/protocol.h"
#include "server/catalog.h"
#include "util/aligned_buffer.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  size_t r_rows;       ///< build table R(pk, attr): pk = 1..r_rows
  size_t s_rows;       ///< probe table S(fk, val)
  bool s_clustered;    ///< S.val sequential from a seeded base (else uniform)
  uint32_t s_window;   ///< values each s=[lo,hi] window covers
  double r_keep;       ///< share of R's keys each r=[lo,hi] window keeps
  bool packed;         ///< compressed twins; lines say storage=packed
  int connections;     ///< closed-loop wire connections (= handler threads)
  int threads;         ///< executor threads per query (ExecConfig::threads)
  size_t pool_lines;
  bool build_fits_l2;  ///< the design intent, checked against the host's L2
};

/// Uniform S values are drawn from [0, kUniformDomain).
inline constexpr uint32_t kUniformDomain = uint32_t{1} << 30;
/// R.attr (the group key) is uniform in [1, kGroups].
inline constexpr uint32_t kGroups = 1024;

const WorkloadSpec* FindWorkload(std::string_view name);

/// Generated base tables (slack-padded like the catalog's own copies).
struct Tables {
  size_t r_rows = 0, s_rows = 0;
  simddb::AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals;
};

Tables GenerateTables(const WorkloadSpec& w, uint64_t seed);

/// Registers R and S (with compressed twins when w.packed).
void RegisterTables(const WorkloadSpec& w, const Tables& t,
                    simddb::server::Catalog* catalog);

/// Catalog footprint: raw columns plus compressed twins, in bytes.
size_t StoredBytes(const simddb::server::Catalog& catalog);
/// Raw user bytes: both columns of every table at 4 bytes a value.
size_t UserBytes(const simddb::server::Catalog& catalog);

struct PoolLine {
  std::string text;
  uint32_t r_lo = 0, r_hi = 0;
  uint32_t s_lo = 0, s_hi = 0;
};

std::vector<PoolLine> GeneratePool(const WorkloadSpec& w, uint64_t seed);

/// The oracle: the line's plan over the catalog's raw columns of R and S,
/// run in-process with the scalar kernels on the dynamic operator chain —
/// a different path from the one the server takes by default.
simddb::exec::QueryResult ReferenceResult(
    const simddb::server::Catalog& catalog, const PoolLine& line);

/// True when the wire rows equal the reference row by row; otherwise
/// *why names the first difference.
bool SameRows(const simddb::exec::QueryResult& ref,
              const std::vector<simddb::net::WireRow>& rows, std::string* why);

/// Buckets of the linear-probing table the executor builds over n rows
/// (the HashBuildOp sizing rule); each bucket holds a key and a payload word.
size_t BuildTableBuckets(size_t n_build);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
