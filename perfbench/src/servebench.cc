// servebench: the serving benchmark's single process.
//
// Generates one workload's tables and query pool from --seed, registers the
// tables in a catalog, hosts a net::Server on a Unix socket configured like
// the simddb_server daemon's defaults (only the listener, handler count,
// executor threads and compressed twins are set; no query pins isa=), and
// drives it with a closed loop of persistent wire connections: each sends
// its next QUERY only after the previous OK arrived. Every response is
// compared row by row against an in-process scalar reference.
//
//   servebench --workload q3_raw --seed 1 --seconds 10 --trace 0
//       --socket bench.sock [--spans spans.jsonl] [--corrupt-reference]
//       [--describe]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant (an untraced and a traced wire loop, then an in-process replay
// with spans around every layer call, replay.h) and prints the per-layer
// metrics. Human-readable `config` and `metric` lines come first; the last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.
// The exit code is 0 only when every response was correct.
//
// --describe prints the seed's pool and reference shape as JSON and exits
// (the seed-discipline self-check compares two seeds with it).
// --corrupt-reference perturbs one reference row, which a correct run must
// then report as a failure (the oracle self-test).

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/isa.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "replay.h"
#include "server/scheduler.h"
#include "trace.h"
#include "util/cpu_info.h"
#include "workload.h"

namespace {

using namespace perfbench;
using namespace simddb;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string socket = "perfbench.sock";
  std::string spans;
  bool corrupt_reference = false;
  bool describe = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--socket "
               "<path>] [--spans <path>] [--corrupt-reference] "
               "[--describe]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      a.trace = std::atoi(next().c_str());
    } else if (arg == "--socket") {
      a.socket = next();
    } else if (arg == "--spans") {
      a.spans = next();
    } else if (arg == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else if (arg == "--describe") {
      a.describe = true;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (FindWorkload(a.workload) == nullptr) Usage("unknown --workload");
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    Usage("--seconds must be > 0 and --trace 0 or 1");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The 99th percentile, or the highest nearest-rank percentile that still
// leaves at least ten samples beyond it.
struct Tail {
  double value = 0;
  double percentile = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  if (n > 10) rank = std::min(rank, n - 10);
  rank = std::max<size_t>(rank, 1);
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

// Stretches per run for the tail, and the fewest queries a stretch needs
// (its 95th percentile then has ten samples beyond it).
constexpr size_t kStretches = 5;
constexpr size_t kMinStretch = 200;

// The tail of a run as the median, over kStretches consecutive stretches
// of queries in completion order, of each stretch's tail (TailOf): a burst
// of host noise moves one or two stretches, not the run's figure. A stretch
// of fewer than 1,000 queries gives its highest percentile with ten samples
// beyond it, and the result carries the lowest such percentile. Runs too
// short for kStretches stretches of kMinStretch report the whole run's tail.
Tail StretchTail(const std::vector<double>& done_s,
                 const std::vector<double>& latency, size_t* stretches) {
  const size_t n = latency.size();
  *stretches = n / kMinStretch >= kStretches ? kStretches : 1;
  if (*stretches == 1) return TailOf(latency);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return done_s[a] < done_s[b]; });
  std::vector<double> tails;
  double percentile = 100.0;
  for (size_t s = 0; s < kStretches; ++s) {
    std::vector<double> stretch;
    for (size_t i = s * n / kStretches; i < (s + 1) * n / kStretches; ++i) {
      stretch.push_back(latency[order[i]]);
    }
    const Tail t = TailOf(std::move(stretch));
    tails.push_back(t.value);
    percentile = std::min(percentile, t.percentile);
  }
  return {Median(tails), percentile};
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Set-up: tables, catalog, server, first PONG.

// Set-ups per run. One takes about 0.1 s, so a single one is at the mercy
// of a scheduler hiccup; setup_s reports the median. All but the last run
// in forked children (SetUpInChild).
constexpr int kSetups = 11;

struct Instance {
  std::unique_ptr<server::Catalog> catalog;
  std::unique_ptr<net::Server> server;
  net::ServerOptions opts;

  ~Instance() {
    if (server) server->Stop();
  }
};

net::ServerOptions ServerOptionsFor(const WorkloadSpec& w,
                                    const std::string& socket) {
  net::ServerOptions opts;  // the daemon's defaults, except:
  opts.unix_path = socket;
  opts.handler_threads = w.connections;
  opts.exec.threads = w.threads;
  return opts;
}

std::unique_ptr<Instance> SetUp(const WorkloadSpec& w, uint64_t seed,
                                const std::string& socket, double* seconds) {
  const uint64_t t0 = obs::NowNs();
  auto inst = std::make_unique<Instance>();
  inst->catalog = std::make_unique<server::Catalog>();
  {
    const Tables tables = GenerateTables(w, seed);
    RegisterTables(w, tables, inst->catalog.get());
  }  // the catalog holds its own copies
  inst->opts = ServerOptionsFor(w, socket);
  inst->server = std::make_unique<net::Server>(inst->catalog.get(), inst->opts);
  std::string error;
  if (!inst->server->Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return nullptr;
  }
  net::Client client;
  if (!client.ConnectUnix(socket, &error) || !client.Ping()) {
    std::fprintf(stderr, "no PONG from the server: %s\n", error.c_str());
    return nullptr;
  }
  *seconds = 1e-9 * static_cast<double>(obs::NowNs() - t0);
  client.Quit();
  return inst;
}

// Times one set-up in a forked child that then stops its server and exits,
// so repeated set-ups leave nothing in this process's memory or peak RSS.
// Call only while this process is single-threaded. Returns a negative time
// when the child's set-up failed.
double SetUpInChild(const WorkloadSpec& w, uint64_t seed,
                    const std::string& socket) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1;
    std::unique_ptr<Instance> inst = SetUp(w, seed, socket, &seconds);
    if (!inst) seconds = -1;
    inst.reset();  // stop the server before the parent binds the socket
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  if (read(fds[0], &seconds, sizeof(seconds)) !=
      static_cast<ssize_t>(sizeof(seconds))) {
    seconds = -1;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return seconds;
}

// Caps connections at nproc and connections x executor threads at nproc.
WorkloadSpec FitToHost(WorkloadSpec w, int nproc) {
  w.connections = std::max(1, std::min(w.connections, nproc));
  w.threads = std::max(1, std::min(w.threads, nproc / w.connections));
  return w;
}

// ---------------------------------------------------------------------------
// The closed loop.

struct Failures {
  uint64_t err_frames = 0;  ///< ERR responses
  uint64_t transport = 0;   ///< dead connections, undecodable frames
  uint64_t wrong = 0;       ///< results that differ from the reference
  std::string first;

  uint64_t total() const { return err_frames + transport + wrong; }
  void Merge(const Failures& o) {
    err_frames += o.err_frames;
    transport += o.transport;
    wrong += o.wrong;
    if (first.empty()) first = o.first;
  }
};

struct LoopResult {
  uint64_t attempted = 0;
  Failures failures;
  double wall_s = 0;
  std::vector<double> latency_ns, exec_ns, queue_ns, morsels, wire_ns;
  std::vector<double> done_s;  ///< completion times, seconds from the start
  std::vector<Span> spans;

  size_t completed() const { return latency_ns.size(); }
};

LoopResult RunLoop(const std::string& socket, const std::vector<PoolLine>& pool,
                   const std::vector<exec::QueryResult>& refs, int conns,
                   double seconds, bool trace, uint64_t request_base) {
  LoopResult total;
  std::mutex mu;
  const uint64_t start = obs::NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t last_end = start;
  std::vector<std::thread> threads;
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      LoopResult mine;
      SpanLog log(request_base + static_cast<uint64_t>(t) + 1);
      net::Client client;
      std::string error;
      const auto fail = [&](uint64_t Failures::*kind, const std::string& why) {
        ++(mine.failures.*kind);
        if (mine.failures.first.empty()) mine.failures.first = why;
      };
      if (!client.ConnectUnix(socket, &error)) {
        ++mine.attempted;
        fail(&Failures::transport, "connect: " + error);
      }
      size_t i = static_cast<size_t>(t) * pool.size() / conns;
      uint64_t seq = 0;
      while (client.connected() && obs::NowNs() < deadline) {
        const size_t k = i++ % pool.size();
        const uint64_t request = ((request_base + t + 1) << 40) | ++seq;
        if (trace) log.Begin("wire.query", request);
        const uint64_t t0 = obs::NowNs();
        const net::WireResult r = client.Query(pool[k].text);
        const uint64_t t1 = obs::NowNs();
        if (trace) log.End();
        ++mine.attempted;
        if (!r.ok) {
          if (r.error.rfind("transport", 0) == 0 ||
              r.error.rfind("undecodable", 0) == 0 ||
              r.error.rfind("unexpected", 0) == 0) {
            fail(&Failures::transport, r.error);
            client.Close();
            client.ConnectUnix(socket, &error);
          } else {
            fail(&Failures::err_frames, "ERR " + r.error);
          }
          continue;
        }
        std::string why;
        if (r.rows_declared != r.rows.size()) {
          fail(&Failures::wrong, "OK rows= disagrees with the ROW frames");
          continue;
        }
        if (!SameRows(refs[k], r.rows, &why)) {
          fail(&Failures::wrong, pool[k].text + ": " + why);
          continue;
        }
        const double lat = static_cast<double>(t1 - t0);
        mine.latency_ns.push_back(lat);
        mine.done_s.push_back(1e-9 * static_cast<double>(t1 - start));
        mine.exec_ns.push_back(static_cast<double>(r.exec_ns));
        mine.queue_ns.push_back(static_cast<double>(r.queue_ns));
        mine.morsels.push_back(static_cast<double>(r.morsels));
        mine.wire_ns.push_back(std::max(
            0.0, lat - static_cast<double>(r.exec_ns + r.queue_ns)));
      }
      client.Quit();
      const uint64_t end = obs::NowNs();
      std::lock_guard<std::mutex> lock(mu);
      last_end = std::max(last_end, end);
      total.attempted += mine.attempted;
      total.failures.Merge(mine.failures);
      for (auto [dst, src] :
           {std::pair{&total.latency_ns, &mine.latency_ns},
            std::pair{&total.exec_ns, &mine.exec_ns},
            std::pair{&total.queue_ns, &mine.queue_ns},
            std::pair{&total.morsels, &mine.morsels},
            std::pair{&total.wire_ns, &mine.wire_ns},
            std::pair{&total.done_s, &mine.done_s}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
      total.spans.insert(total.spans.end(), log.spans().begin(),
                         log.spans().end());
    });
  }
  for (std::thread& th : threads) th.join();
  total.wall_s = 1e-9 * static_cast<double>(last_end - start);
  return total;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m, const std::string& note = "") {
  std::printf("metric %s %.6g %s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.empty() ? "" : "  ", note.c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const char* PipelineModeName(exec::PipelineMode m) {
  switch (m) {
    case exec::PipelineMode::kAuto: return "auto";
    case exec::PipelineMode::kDynamic: return "dynamic";
    case exec::PipelineMode::kFused: return "fused";
  }
  return "?";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------

int Describe(const WorkloadSpec& w, uint64_t seed) {
  server::Catalog catalog;
  RegisterTables(w, GenerateTables(w, seed), &catalog);
  const size_t s_rows = catalog.Find("S")->rows();
  const std::vector<PoolLine> pool = GeneratePool(w, seed);
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"r_rows\": %zu, "
              "\"s_rows\": %zu, \"lines\": [",
              w.name, static_cast<unsigned long long>(seed),
              catalog.Find("R")->rows(), s_rows);
  std::string sel;
  for (size_t i = 0; i < pool.size(); ++i) {
    const exec::QueryResult ref = ReferenceResult(catalog, pool[i]);
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", pool[i].text.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ", ",
                  Ratio(static_cast<double>(ref.rows_scanned),
                        static_cast<double>(s_rows)));
    sel += buf;
  }
  std::printf("], \"selectivity\": [%s]}\n", sel.c_str());
  return 0;
}

// What the measurement phases share: the set-up instance, the pool and its
// references.
struct Bench {
  const Args& args;
  const WorkloadSpec& w;
  Instance& inst;
  const std::vector<PoolLine>& pool;
  const std::vector<exec::QueryResult>& refs;
  size_t max_selected;  ///< largest reference rows_scanned

  LoopResult Loop(double seconds, bool trace, uint64_t request_base) const {
    return RunLoop(args.socket, pool, refs, w.connections, seconds, trace,
                   request_base);
  }
};

// What a run reports: the operation counts and failures behind `correct`,
// and the metrics.
struct Outcome {
  uint64_t attempted = 0;
  Failures failures;
  std::string fatal;  ///< a run that measured nothing, or lost its spans
  std::vector<Metric> metrics;

  void Add(const LoopResult& r) {
    attempted += r.attempted;
    failures.Merge(r.failures);
    if (r.completed() == 0) fatal = "no query completed";
  }
};

// --trace 0: the end-to-end metrics of one closed-loop window.
void MeasureEndToEnd(const Bench& b, const std::vector<double>& setup_s,
                     Outcome* out) {
  const double cpu0 = CpuSeconds();
  const LoopResult run = b.Loop(b.args.seconds, false, 0);
  const double cpu_s = CpuSeconds() - cpu0;
  out->Add(run);
  const double n = static_cast<double>(run.completed());
  size_t stretches = 0;
  const Tail tail = StretchTail(run.done_s, run.latency_ns, &stretches);
  char tail_note[128];
  if (stretches > 1) {
    std::snprintf(tail_note, sizeof(tail_note),
                  "median p%.2f of %zu stretches of %zu queries",
                  tail.percentile, stretches, run.completed() / stretches);
  } else {
    std::snprintf(tail_note, sizeof(tail_note), "p%.2f of %zu samples",
                  tail.percentile, run.completed());
  }
  out->metrics = {
      {"qps", Ratio(n, run.wall_s), "1/s"},
      {"latency_p50_ms", Median(run.latency_ns) * 1e-6, "ms"},
      {"latency_p99_ms", tail.value * 1e-6, "ms"},
      {"cpu_ms_per_query", Ratio(cpu_s * 1e3, n), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"stored_bytes_per_user_byte",
       Ratio(static_cast<double>(StoredBytes(*b.inst.catalog)),
             static_cast<double>(UserBytes(*b.inst.catalog))),
       "ratio"},
  };
  const std::string notes[] = {
      "",
      std::to_string(run.completed()) + " samples",
      tail_note,
      "",
      "median of " + std::to_string(setup_s.size()),
      "",
      "",
  };
  for (size_t i = 0; i < out->metrics.size(); ++i) {
    PrintMetric(out->metrics[i], notes[i]);
  }
  PrintMetric({"failed_ratio",
               Ratio(static_cast<double>(out->failures.total()),
                     static_cast<double>(out->attempted)),
               "ratio"});
  PrintMetric({"net.wire_ns", Median(run.wire_ns), "ns"}, "untraced");
}

// --trace 1: an untraced wire loop (the base of obs.trace_overhead), a
// traced one with the registry on, then the in-process replay; the
// per-layer metrics, and the spans written out.
void MeasureLayers(const Bench& b, Outcome* out) {
  const double seconds = b.args.seconds;
  const LoopResult base = b.Loop(0.25 * seconds, false, 0);
  obs::EnableMetrics(true);
  const auto reg0 = obs::SnapshotMap();
  const net::ServerStats st0 = b.inst.server->stats();
  const LoopResult traced = b.Loop(0.25 * seconds, true, 16);
  const auto grown = obs::DeltaSince(reg0);
  const net::ServerStats st1 = b.inst.server->stats();

  Replayer replayer(b.inst.catalog.get(), b.w, b.inst.opts.exec,
                    b.max_selected);
  SpanLog replay_log(0);
  std::vector<double> scanned, joined, groups, chunks, selectivity, matched,
      skipped, unpacked;
  const uint64_t replay_end =
      obs::NowNs() + static_cast<uint64_t>(0.5 * seconds * 1e9);
  size_t replays = 0;
  for (; replays < b.pool.size() || obs::NowNs() < replay_end; ++replays) {
    const size_t k = replays % b.pool.size();
    const ReplayResult r =
        replayer.Run(b.pool[k], b.refs[k], replays + 1, &replay_log);
    if (!r.ok) {
      ++out->failures.wrong;
      if (out->failures.first.empty()) {
        out->failures.first = "replay of " + b.pool[k].text + ": " + r.error;
      }
    }
    const double sel = static_cast<double>(r.selected);
    scanned.push_back(static_cast<double>(r.exec.rows_scanned));
    joined.push_back(static_cast<double>(r.exec.rows_joined));
    groups.push_back(static_cast<double>(r.exec.group_keys.size()));
    chunks.push_back(static_cast<double>(r.chunks_pushed));
    selectivity.push_back(Ratio(sel, static_cast<double>(b.w.s_rows)));
    matched.push_back(Ratio(static_cast<double>(r.joined), sel));
    skipped.push_back(Ratio(static_cast<double>(r.s_blocks_skipped),
                            static_cast<double>(r.s_blocks)));
    unpacked.push_back(Ratio(static_cast<double>(r.bytes_unpacked),
                             static_cast<double>(r.exec.rows_scanned)));
  }
  obs::EnableMetrics(false);
  out->Add(base);
  out->Add(traced);
  out->attempted += replays;

  // Per-request self times of the replay spans, then medians per layer.
  const auto self = SelfTimesByRequest(replay_log.spans());
  const auto self_median = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [request, names] : self) {
      const auto it = names.find(name);
      v.push_back(it == names.end() ? 0.0 : static_cast<double>(it->second));
    }
    return Median(v);
  };
  const double queries = static_cast<double>(traced.completed());
  const auto per_query = [&](const char* counter) {
    const auto it = grown.find(counter);
    return Ratio(it == grown.end() ? 0.0 : static_cast<double>(it->second),
                 queries);
  };
  const double exec_alone = self_median("exec.query");
  const double server_exec = Median(traced.exec_ns);
  out->metrics = {
      {"net.parse_ns", self_median("net.parse"), "ns"},
      {"net.encode_ns", self_median("net.encode"), "ns"},
      {"net.decode_ns", self_median("net.decode"), "ns"},
      {"net.bytes_out_per_query",
       Ratio(static_cast<double>(st1.bytes_out - st0.bytes_out), queries),
       "bytes"},
      {"net.wire_ns", Median(traced.wire_ns), "ns"},
      {"server.bind_ns", self_median("server.bind"), "ns"},
      {"server.queue_ns", Median(traced.queue_ns), "ns"},
      {"server.exec_ns", server_exec, "ns"},
      {"server.exec_inflation", Ratio(server_exec, exec_alone), "ratio"},
      {"task_pool.morsels_per_query", Median(traced.morsels), "count"},
      {"task_pool.fair_quanta_per_query", per_query("fair_quanta"), "count"},
      {"task_pool.steals_per_query", per_query("steals"), "count"},
      {"task_pool.inline_runs_per_query", per_query("inline_runs"), "count"},
      {"task_pool.barrier_wait_ns", per_query("barrier_wait_ns"), "ns"},
      {"exec.query_ns", exec_alone, "ns"},
      {"exec.rows_scanned", Median(scanned), "count"},
      {"exec.rows_joined", Median(joined), "count"},
      {"exec.groups", Median(groups), "count"},
      {"exec.chunks_per_query", Median(chunks), "count"},
      {"scan.select_ns", self_median("scan.select"), "ns"},
      {"scan.selectivity", Median(selectivity), "ratio"},
      {"hash.build_ns", self_median("hash.build"), "ns"},
      {"hash.probe_ns", self_median("hash.probe"), "ns"},
      {"hash.match_ratio", Median(matched), "ratio"},
      {"agg.groupby_ns", self_median("agg.groupby"), "ns"},
      {"compress.unpack_ns", self_median("compress.unpack"), "ns"},
      {"compress.blocks_skipped_ratio", Median(skipped), "ratio"},
      {"compress.bytes_unpacked_per_row_scanned", Median(unpacked), "bytes"},
      {"obs.trace_overhead",
       Ratio(Ratio(queries, traced.wall_s),
             Ratio(static_cast<double>(base.completed()), base.wall_s)),
       "ratio"},
  };
  for (const Metric& m : out->metrics) PrintMetric(m);
  const std::vector<double> cover = ChildCoverage(replay_log.spans());
  std::printf(
      "trace replays=%zu wire_queries=%zu child_coverage_median=%.4f "
      "child_coverage_min=%.4f\n",
      replays, traced.completed(), Median(cover),
      cover.empty() ? 0.0 : *std::min_element(cover.begin(), cover.end()));

  if (b.args.spans.empty()) return;
  std::vector<Span> all = traced.spans;
  all.insert(all.end(), replay_log.spans().begin(), replay_log.spans().end());
  if (!WriteSpans(b.args.spans, all)) {
    out->fatal = "cannot write spans to " + b.args.spans;
    return;
  }
  std::printf("trace spans=%zu written to %s\n", all.size(),
              b.args.spans.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  const Args args = ParseArgs(argc, argv);
  const int nproc =
      std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  const WorkloadSpec w = FitToHost(*FindWorkload(args.workload), nproc);
  if (args.describe) return Describe(w, args.seed);

  // Set up several times, all but the last in forked children; setup_s is
  // the median. The last set-up is the one that serves.
  std::vector<double> setup_s;
  for (int k = 1; k < kSetups; ++k) {
    const double s = SetUpInChild(w, args.seed, args.socket);
    if (s < 0) return 1;
    setup_s.push_back(s);
  }
  double last_setup_s = 0;
  std::unique_ptr<Instance> inst =
      SetUp(w, args.seed, args.socket, &last_setup_s);
  if (!inst) return 1;
  setup_s.push_back(last_setup_s);

  // The oracle, outside setup_s.
  const std::vector<PoolLine> pool = GeneratePool(w, args.seed);
  std::vector<exec::QueryResult> refs;
  for (const PoolLine& line : pool) {
    refs.push_back(ReferenceResult(*inst->catalog, line));
  }
  if (args.corrupt_reference && !refs[0].sums.empty()) refs[0].sums[0] += 1;

  // What the server serves by default: its ExecConfig, clamped to the host,
  // and the executor path that config takes on this plan shape.
  const exec::ExecConfig& served = inst->opts.exec;
  bool used_fused = false;
  {
    net::Request req;
    net::ParseError perr;
    exec::ScanJoinAggregatePlan plan;
    std::string error;
    if (!net::ParseRequest(pool[0].text, &req, &perr) ||
        !server::BindQuery(*inst->catalog, net::ToSpec(req.query), &plan,
                           &error)) {
      std::fprintf(stderr, "pool line 0 does not bind: %s\n", error.c_str());
      return 1;
    }
    used_fused = exec::RunScanJoinAggregate(plan, served).used_fused;
  }

  size_t max_build = 0, max_selected = 0;
  for (const exec::QueryResult& r : refs) {
    max_build = std::max<size_t>(max_build, r.rows_build);
    max_selected = std::max<size_t>(max_selected, r.rows_scanned);
  }
  const server::Table* s_table = inst->catalog->Find("S");
  const size_t probe_bytes =
      w.packed ? s_table->keys_compressed()->packed_bytes() +
                     s_table->vals_compressed()->packed_bytes()
               : 2 * s_table->rows() * sizeof(uint32_t);
  const size_t build_bytes =
      BuildTableBuckets(max_build) * 2 * sizeof(uint32_t);
  const size_t l2 = GetCpuInfo().l2_bytes;
  const bool fits = build_bytes <= l2;
  std::printf(
      "config workload=%s seed=%llu nproc=%d best_isa=%s server_isa=%s "
      "isa_mode=%s pipeline_mode=%s served_pipeline=%s l2_bytes=%zu "
      "build_rows=%zu build_table_bytes=%zu build_table_vs_l2=%s%s "
      "probe_column_bytes=%zu storage=%s connections=%d executor_threads=%d "
      "pool_lines=%zu\n",
      w.name, static_cast<unsigned long long>(args.seed), nproc,
      IsaName(BestIsa()), IsaName(EffectiveIsa(served.isa)),
      served.isa_mode == exec::IsaMode::kAdaptive ? "adaptive" : "static",
      PipelineModeName(served.pipeline_mode), used_fused ? "fused" : "dynamic",
      l2, max_build, build_bytes, fits ? "fits" : "larger",
      fits == w.build_fits_l2 ? "" : " (NOT AS DESIGNED)", probe_bytes,
      w.packed ? "packed" : "raw", w.connections, w.threads, pool.size());

  // Warm up: caches, lazy allocations, the pool's worker threads.
  const Bench bench{args, w, *inst, pool, refs, max_selected};
  Outcome out;
  out.Add(bench.Loop(std::min(1.0, 0.2 * args.seconds), false, 0));
  if (args.trace == 0) {
    MeasureEndToEnd(bench, setup_s, &out);
  } else {
    MeasureLayers(bench, &out);
  }

  inst.reset();  // graceful drain before reporting
  const Failures& f = out.failures;
  const bool correct = f.total() == 0 && out.fatal.empty();
  if (!out.fatal.empty()) {
    std::fprintf(stderr, "FAILED: %s\n", out.fatal.c_str());
  }
  if (f.total() != 0) {
    std::fprintf(stderr,
                 "FAILED: %llu wrong results, %llu ERR frames, %llu transport "
                 "failures; first: %s\n",
                 static_cast<unsigned long long>(f.wrong),
                 static_cast<unsigned long long>(f.err_frames),
                 static_cast<unsigned long long>(f.transport), f.first.c_str());
  }
  PrintResult(correct, out.attempted, f.total(), out.metrics);
  return correct ? 0 : 1;
}
