#include "workload.h"

#include <random>

#include "util/data_gen.h"

namespace perfbench {
namespace {

using simddb::exec::QueryResult;

// SplitMix64: derives independent per-column seeds from the run's seed.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr size_t kPad = 16;  // catalog-style slack past the last row

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = {
      // name         R rows      S rows       clustered window
      //              r_keep packed conns threads pool fits_l2
      {"q3_raw", size_t{256} << 10, size_t{4} << 20, false,
       kUniformDomain / 10, 0.75, false, 2, 1, 16, false},
      {"q3_packed", size_t{256} << 10, size_t{4} << 20, false,
       kUniformDomain / 100, 0.75, true, 2, 1, 16, false},
      {"point_packed", size_t{16} << 10, size_t{4} << 20, true, 1024, 1.0,
       true, 3, 1, 64, true},
      {"q3_parallel", size_t{256} << 10, size_t{4} << 20, false,
       kUniformDomain / 10, 0.75, false, 2, 2, 16, false},
  };
  return kAll;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Tables GenerateTables(const WorkloadSpec& w, uint64_t seed) {
  Tables t;
  t.r_rows = w.r_rows;
  t.s_rows = w.s_rows;
  t.r_keys.Reset(w.r_rows + kPad);
  t.r_attrs.Reset(w.r_rows + kPad);
  t.s_fks.Reset(w.s_rows + kPad);
  t.s_vals.Reset(w.s_rows + kPad);
  simddb::FillSequential(t.r_keys.data(), w.r_rows, 1);
  simddb::FillUniform(t.r_attrs.data(), w.r_rows, Mix(seed ^ 1), 1, kGroups);
  simddb::FillUniform(t.s_fks.data(), w.s_rows, Mix(seed ^ 2), 1,
                      static_cast<uint32_t>(w.r_rows));
  if (w.s_clustered) {
    const uint32_t base = static_cast<uint32_t>(Mix(seed ^ 3) % (1u << 20));
    simddb::FillSequential(t.s_vals.data(), w.s_rows, base);
  } else {
    simddb::FillUniform(t.s_vals.data(), w.s_rows, Mix(seed ^ 3), 0,
                        kUniformDomain - 1);
  }
  return t;
}

void RegisterTables(const WorkloadSpec& w, const Tables& t,
                    simddb::server::Catalog* catalog) {
  simddb::server::TableOptions opts;
  opts.compress = w.packed;
  catalog->RegisterTable("R", t.r_keys.data(), t.r_attrs.data(), t.r_rows,
                         opts);
  catalog->RegisterTable("S", t.s_fks.data(), t.s_vals.data(), t.s_rows,
                         opts);
}

size_t StoredBytes(const simddb::server::Catalog& catalog) {
  size_t bytes = 0;
  for (const std::string& name : catalog.TableNames()) {
    const simddb::server::Table* table = catalog.Find(name);
    bytes += 2 * table->rows() * sizeof(uint32_t);
    if (table->keys_compressed() != nullptr) {
      bytes += table->keys_compressed()->packed_bytes() +
               table->vals_compressed()->packed_bytes();
    }
  }
  return bytes;
}

size_t UserBytes(const simddb::server::Catalog& catalog) {
  size_t rows = 0;
  for (const std::string& name : catalog.TableNames()) {
    rows += catalog.Find(name)->rows();
  }
  return 2 * rows * sizeof(uint32_t);
}

std::vector<PoolLine> GeneratePool(const WorkloadSpec& w, uint64_t seed) {
  std::mt19937_64 rng(Mix(seed ^ 4));
  const uint32_t r_width = static_cast<uint32_t>(w.r_keep * w.r_rows);
  uint32_t s_base = 0, s_span = kUniformDomain;
  if (w.s_clustered) {
    s_base = static_cast<uint32_t>(Mix(seed ^ 3) % (1u << 20));
    s_span = static_cast<uint32_t>(w.s_rows);
  }
  std::uniform_int_distribution<uint32_t> r_off(0, w.r_rows - r_width);
  std::uniform_int_distribution<uint32_t> s_off(0, s_span - w.s_window);
  std::vector<PoolLine> pool(w.pool_lines);
  for (PoolLine& line : pool) {
    line.r_lo = 1 + r_off(rng);
    line.r_hi = line.r_lo + r_width - 1;
    line.s_lo = s_base + s_off(rng);
    line.s_hi = line.s_lo + w.s_window - 1;
    line.text = "QUERY build=R probe=S r=[" + std::to_string(line.r_lo) + "," +
                std::to_string(line.r_hi) + "] s=[" +
                std::to_string(line.s_lo) + "," + std::to_string(line.s_hi) +
                "]";
    if (w.packed) line.text += " storage=packed";
  }
  return pool;
}

QueryResult ReferenceResult(const simddb::server::Catalog& catalog,
                            const PoolLine& line) {
  const simddb::server::Table* r = catalog.Find("R");
  const simddb::server::Table* s = catalog.Find("S");
  simddb::exec::ScanJoinAggregatePlan plan;
  plan.r_keys = r->keys();
  plan.r_attrs = r->vals();
  plan.n_r = r->rows();
  plan.r_lo = line.r_lo;
  plan.r_hi = line.r_hi;
  plan.s_fks = s->keys();
  plan.s_vals = s->vals();
  plan.n_s = s->rows();
  plan.s_lo = line.s_lo;
  plan.s_hi = line.s_hi;
  simddb::exec::ExecConfig cfg;
  cfg.isa = simddb::Isa::kScalar;
  cfg.threads = 1;
  cfg.isa_mode = simddb::exec::IsaMode::kStatic;
  cfg.pipeline_mode = simddb::exec::PipelineMode::kDynamic;
  return simddb::exec::RunScanJoinAggregate(plan, cfg);
}

bool SameRows(const QueryResult& ref,
              const std::vector<simddb::net::WireRow>& rows, std::string* why) {
  if (rows.size() != ref.group_keys.size()) {
    *why = "row count " + std::to_string(rows.size()) + " != reference " +
           std::to_string(ref.group_keys.size());
    return false;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const simddb::net::WireRow& r = rows[i];
    if (r.key != ref.group_keys[i] || r.sum != ref.sums[i] ||
        r.count != ref.counts[i] || r.min != ref.mins[i] ||
        r.max != ref.maxs[i]) {
      *why = "row " + std::to_string(i) + " (key " + std::to_string(r.key) +
             ") differs from the reference";
      return false;
    }
  }
  return true;
}

size_t BuildTableBuckets(size_t n_build) {
  size_t buckets = 16;
  while (buckets < 2 * (n_build + 1)) buckets <<= 1;
  return buckets;
}

}  // namespace perfbench
