// The repository benchmark's driver: runs one workload through the
// library's public API, checks every answer against results it computes on
// its own, and prints the metrics as one JSON object on its last line.
//
//   perfbench_driver --workload <paper-speedup|loopback-rpc|serving-mix>
//                    --seed <n> --seconds <s> --trace <0|1> [--noise-seed <n>]
//
// Run from the repository root: span traces and the temporary store files
// go to .bench_build/out.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// once untraced and once through the benchmark's tracing decorators and
// prints the per-layer metrics. perfbench/README.md describes the
// workloads and every metric.

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/federation.h"
#include "dp/accountant.h"
#include "exec/federation_client.h"
#include "federation/provider.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "serve/ledger_backend.h"
#include "serve/ledger_service.h"
#include "storage/cluster_store.h"
#include "tracing.h"

namespace perfbench {
namespace {

using fedaqp::Aggregation;
using fedaqp::FederationClient;
using fedaqp::QueryKind;
using fedaqp::QueryPriority;
using fedaqp::QuerySpec;
using fedaqp::QueryTicket;

constexpr size_t kProviders = 4;
/// When the process started (input generation is timed from here).
int64_t g_start_ns = 0;
constexpr double kEpsilon = 1.0;
/// Each workload's data set is fixed, like the paper's (one Amazon table,
/// one Adult table); --seed varies the queries, the serving stream, the
/// arrival times and the noise seeds.
constexpr uint64_t kDatasetSeed = 2025;
/// Every workload reads the resident set at the end of this round, which
/// every run completes, not at the end of a timed run: what a run holds
/// grows with the rounds it manages, and the benchmark's own sample vectors
/// leave more resident after reallocating than it can subtract exactly.
constexpr size_t kFixedRounds = 3;
/// Where span traces and temporary store files go (relative to the root).
const char* const kOutDir = ".bench_build/out";

// ------------------------------------------------------------- helpers --

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(k, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Resident set of this process in bytes.
double ResidentBytes() {
  long pages = 0;
  long resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Memory traffic of memcpy on this host, bytes read plus bytes written per
/// second (64 MiB buffers, best of 5): the roofline a scan that only reads
/// is held against.
double MemcpyBytesPerSecond() {
  const size_t n = 64u << 20;
  std::vector<char> a(n, 1);
  std::vector<char> b(n, 0);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    std::memcpy(b.data(), a.data(), n);
    const int64_t t1 = NowNs();
    a[rep] = b[n - 1 - rep];
    best = std::max(best, 2.0 * static_cast<double>(n) / Seconds(t1 - t0));
  }
  return best;
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

/// Everything one run measured and checked.
struct Report {
  Metrics metrics;
  std::vector<CheckResult> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Phase(const std::string& name, uint64_t attempted_ops, uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
    std::printf("phase %-22s attempted %8llu failed %llu\n", name.c_str(),
                static_cast<unsigned long long>(attempted_ops),
                static_cast<unsigned long long>(failed_ops));
  }
  void Check(CheckResult c) {
    std::printf("check %-34s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
    checks.push_back(std::move(c));
  }
};

// ---------------------------------------------------------- collection --

/// What one completed query contributes to the metrics and checks.
struct Accumulator {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> approx_latency_ms;
  std::vector<double> exact_latency_ms;
  std::vector<double> rel_error;
  std::vector<ExactAnswer> exact_answers;
  std::vector<ApproxAnswer> approx_answers;
  std::vector<SpentAnswer> spent;
  uint64_t answered_private = 0;
  uint64_t charged = 0;
  uint64_t cache_served = 0;
  uint64_t charged_network_bytes = 0;
  /// Admission rounds the client ran (FederationClient::num_batches).
  uint64_t rounds = 0;
  /// Resident set at the end of the measured rounds, net of the
  /// benchmark's own samples (see MeasureResident).
  double resident_bytes = 0;
  // Per-layer raw samples (executed private answers).
  std::vector<double> queue_wait_ms;
  std::vector<double> critical_path_ms;
  std::vector<double> combine_us;
  std::vector<double> sim_bytes;
  std::vector<double> rows_approx;
  std::vector<double> rows_exact;
  /// [submit, answer] of each depth-1 private query (self-time windows).
  std::vector<std::pair<int64_t, int64_t>> windows;
  /// (stream index, estimate) of private answers (serving-mix repeats).
  std::vector<std::pair<uint64_t, double>> estimates;
  /// Where each round's latency samples end, and each round's private
  /// answers per second (see EndRound).
  std::vector<size_t> round_approx_end;
  std::vector<size_t> round_exact_end;
  std::vector<double> round_qps;

  /// Closes one round of identical work; `private_seconds` > 0 records the
  /// round's private answers per second.
  void EndRound(double private_seconds) {
    const size_t begin = round_approx_end.empty() ? 0 : round_approx_end.back();
    if (private_seconds > 0) {
      round_qps.push_back(static_cast<double>(approx_latency_ms.size() - begin) /
                          private_seconds);
    }
    round_approx_end.push_back(approx_latency_ms.size());
    round_exact_end.push_back(exact_latency_ms.size());
  }

  /// Bytes this accumulator's samples occupy (excluded from resident_mb).
  double FootprintBytes() const {
    return 8.0 * static_cast<double>(approx_latency_ms.size() + exact_latency_ms.size() +
                                     rel_error.size() + queue_wait_ms.size() +
                                     critical_path_ms.size() + combine_us.size() +
                                     sim_bytes.size() + rows_approx.size() +
                                     rows_exact.size() + round_qps.size() +
                                     round_approx_end.size() + round_exact_end.size()) +
           static_cast<double>(sizeof(ExactAnswer) * exact_answers.size() +
                               sizeof(ApproxAnswer) * approx_answers.size() +
                               sizeof(SpentAnswer) * spent.size() +
                               16 * (windows.size() + estimates.size()));
  }

  /// Waits for `t` and records it. `start_ns` is when the query was
  /// submitted; `late_ns`, how long after its due time (open loop; 0 in a
  /// closed loop).
  void Record(QueryTicket& t, int64_t truth, int64_t start_ns, int64_t late_ns,
              bool window, uint64_t stream_index = 0) {
    fedaqp::Result<fedaqp::QueryResponse> r = t.Wait();
    const int64_t done_ns = NowNs();
    ++attempted;
    if (!r.ok()) {
      if (failed++ == 0) {
        std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      }
      return;
    }
    const fedaqp::TicketStats st = t.Stats();
    // Submit to answer on the client's clock, plus in the open loop the
    // generator's lateness, so latency runs from the due time and queueing
    // counts. The wake-up of the benchmark's own thread waiting on the
    // ticket does not.
    const double latency_ms = 1e3 * (Seconds(late_ns) + st.wall_seconds);
    const bool exact = t.spec().kind == QueryKind::kExact;
    charged_network_bytes += r->breakdown.network_bytes;
    if (exact) {
      exact_latency_ms.push_back(latency_ms);
      exact_answers.push_back({r->estimate, truth});
      rows_exact.push_back(static_cast<double>(r->breakdown.rows_scanned));
      return;
    }
    ++answered_private;
    approx_latency_ms.push_back(latency_ms);
    spent.push_back({r->spent.epsilon, st.served_from_cache});
    estimates.push_back({stream_index, r->estimate});
    if (window) windows.push_back({start_ns, done_ns});
    if (st.served_from_cache) {
      ++cache_served;
      return;
    }
    ++charged;
    approx_answers.push_back({r->estimate, r->stderr_estimate, truth});
    rel_error.push_back(std::fabs(r->estimate - static_cast<double>(truth)) /
                        std::max<double>(1.0, static_cast<double>(truth)));
    queue_wait_ms.push_back(1e3 * (st.wall_seconds - st.batch_wall_seconds));
    critical_path_ms.push_back(1e3 * st.critical_path_seconds);
    combine_us.push_back(1e6 * r->breakdown.aggregator_compute_seconds);
    sim_bytes.push_back(static_cast<double>(st.simulated_network_bytes));
    rows_approx.push_back(static_cast<double>(r->breakdown.rows_scanned));
  }
};

/// Appends `from`'s answers and tallies to `into`.
void Merge(const Accumulator& from, Accumulator* into) {
  auto cat = [](auto* a, const auto& b) { a->insert(a->end(), b.begin(), b.end()); };
  into->attempted += from.attempted;
  into->failed += from.failed;
  cat(&into->approx_latency_ms, from.approx_latency_ms);
  cat(&into->exact_latency_ms, from.exact_latency_ms);
  cat(&into->rel_error, from.rel_error);
  cat(&into->exact_answers, from.exact_answers);
  cat(&into->approx_answers, from.approx_answers);
  cat(&into->spent, from.spent);
  into->answered_private += from.answered_private;
  into->charged += from.charged;
  into->cache_served += from.cache_served;
  into->charged_network_bytes += from.charged_network_bytes;
  into->rounds += from.rounds;
  cat(&into->queue_wait_ms, from.queue_wait_ms);
  cat(&into->critical_path_ms, from.critical_path_ms);
  cat(&into->combine_us, from.combine_us);
  cat(&into->sim_bytes, from.sim_bytes);
  cat(&into->rows_approx, from.rows_approx);
  cat(&into->rows_exact, from.rows_exact);
  cat(&into->windows, from.windows);
  cat(&into->estimates, from.estimates);
}

/// The `q`-quantile of each round's samples (rounds end at `round_end`).
std::vector<double> RoundQuantiles(const std::vector<double>& samples,
                                   const std::vector<size_t>& round_end, double q) {
  std::vector<double> out;
  for (size_t r = 0; r < round_end.size(); ++r) {
    const size_t begin = r == 0 ? 0 : round_end[r - 1];
    if (round_end[r] > begin) {
      out.push_back(Quantile(
          std::vector<double>(samples.begin() + begin, samples.begin() + round_end[r]), q));
    }
  }
  return out;
}

/// Mean of the lower (`upper` = false) or upper half of `v`.
double HalfMean(std::vector<double> v, bool upper) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (upper) std::reverse(v.begin(), v.end());
  v.resize((v.size() + 1) / 2);
  return Mean(v);
}

/// A timing over rounds: every round does the same work, and interference
/// from other tenants of a shared host only ever slows a round down, so the
/// run reports the mean over the faster half of the rounds of each round's
/// quantile (the faster rounds measure the program, the slower ones mostly
/// the neighbours).
double OverRounds(const std::vector<double>& samples, const std::vector<size_t>& round_end,
                  double q) {
  return HalfMean(RoundQuantiles(samples, round_end, q), false);
}

/// The resident set with the client still alive at the end of the measured
/// rounds, minus `benchmark_bytes` of the benchmark's own sample storage.
double MeasureResident(double benchmark_bytes) {
  malloc_trim(0);
  return ResidentBytes() - benchmark_bytes;
}

/// Closed loop over `queries` at `depth` outstanding tickets from this
/// thread: the next query is submitted as soon as the oldest answers.
void ClosedLoop(FederationClient* client, const std::vector<Query>& queries,
                QueryKind kind, const std::string& analyst, size_t depth,
                Accumulator* acc) {
  struct Pending {
    QueryTicket ticket;
    int64_t truth;
    int64_t submitted;
  };
  std::deque<Pending> inflight;
  auto finish_oldest = [&] {
    Pending& p = inflight.front();
    acc->Record(p.ticket, p.truth, p.submitted, 0, depth == 1);
    inflight.pop_front();
  };
  for (const Query& q : queries) {
    if (inflight.size() >= depth) finish_oldest();
    QuerySpec spec;
    spec.analyst = analyst;
    spec.query = q.query;
    spec.kind = kind;
    const int64_t now = NowNs();
    inflight.push_back({client->Submit(std::move(spec)), q.truth, now});
  }
  while (!inflight.empty()) finish_oldest();
}

// ---------------------------------------------------------- arguments --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool has_noise_seed = false;
  uint64_t noise_seed = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--noise-seed") {
      a->has_noise_seed = true;
      a->noise_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && a->seconds > 0 &&
         (a->workload == "paper-speedup" || a->workload == "loopback-rpc" ||
          a->workload == "serving-mix");
}

/// Seed of the providers' and aggregator's noise: derived from the
/// workload seed unless overridden, so that the accuracy metric can be
/// re-measured with only the noise changing.
uint64_t NoiseSeed(const Args& a) {
  return a.has_noise_seed ? a.noise_seed : SubSeed(a.seed, 99);
}

fedaqp::FederationConfig Protocol(double sampling_rate, uint64_t noise_seed) {
  fedaqp::FederationConfig p;
  p.per_query_budget = {kEpsilon, 1e-3};
  p.sampling_rate = sampling_rate;
  p.mode = fedaqp::ReleaseMode::kLocalDp;
  p.num_threads = 4;
  p.total_xi = 1e18;
  p.total_psi = 1e9;
  p.network.latency_seconds = 1e-5;
  p.seed = SubSeed(noise_seed, 7);
  return p;
}

/// Cluster capacity: 2% of a provider's cells (at least 512), so every
/// provider holds ~50 clusters and broad queries take the approximate path.
size_t Capacity(const Tensor& t) {
  return std::max<size_t>(512, t.num_cells() / kProviders / 50);
}

// --------------------------------------------------------- the ledger --

/// The budget seam every client charges through: an in-process ledger
/// (paper-speedup, loopback-rpc) or the LedgerService over loopback
/// (serving-mix). Totals are read back through the same backend kind.
struct Ledger {
  std::shared_ptr<fedaqp::AnalystLedger> local;
  std::shared_ptr<fedaqp::serve::RemoteLedger> remote;
  std::shared_ptr<fedaqp::serve::LedgerBackend> backend;

  double Spent(const std::string& a) const {
    auto r = remote ? remote->Spent(a) : local->Spent(a);
    return r.ok() ? r->epsilon : -1.0;
  }
  double Saved(const std::string& a) const {
    auto r = remote ? remote->Saved(a) : local->Saved(a);
    return r.ok() ? r->epsilon : -1.0;
  }
};

Ledger LocalLedger() {
  Ledger l;
  l.local = std::make_shared<fedaqp::AnalystLedger>();
  auto local = l.local;
  l.backend = std::shared_ptr<fedaqp::serve::LedgerBackend>(
      new fedaqp::serve::LocalLedgerBackend(local.get()),
      [local](fedaqp::serve::LedgerBackend* b) { delete b; });
  return l;
}

/// Builds a client over `endpoints` (wrapped in tracing decorators when
/// `log` is set) charging through `ledger`.
std::unique_ptr<FederationClient> MakeClient(
    const std::vector<std::shared_ptr<fedaqp::ProviderEndpoint>>& endpoints,
    FederationClient::Options opts, const Ledger& ledger, SpanLog* log) {
  opts.shared_ledger = ledger.backend;
  std::vector<std::shared_ptr<fedaqp::ProviderEndpoint>> eps = endpoints;
  if (log != nullptr) {
    eps = WrapEndpoints(endpoints, log);
    opts.shared_ledger = std::make_shared<TracingLedger>(ledger.backend, log);
  }
  auto client = FederationClient::Create(std::move(eps), opts);
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(client).value();
}

/// Scheduler counters read from the library's metric registry.
struct SchedCounters {
  double tasks = 0;
  double steals = 0;
  static SchedCounters Read() {
    SchedCounters c;
    for (const auto& s : fedaqp::obs::MetricRegistry::Global().Snapshot()) {
      if (s.name == "task.completed") c.tasks = s.value;
      if (s.name == "scheduler.steals") c.steals = s.value;
    }
    return c;
  }
};

/// Per-layer metrics shared by every workload, from one traced phase.
void LayerMetrics(const std::vector<Span>& spans, const Accumulator& acc,
                  const SchedCounters& before, const SchedCounters& after,
                  Metrics* m) {
  const double queries = std::max<double>(1.0, static_cast<double>(acc.answered_private +
                                                                   acc.exact_answers.size()));
  m->Set("client.queue_wait_ms_p50", Quantile(acc.queue_wait_ms, 0.5), "ms");
  m->Set("client.queries_per_round",
         static_cast<double>(acc.attempted) /
             static_cast<double>(std::max<uint64_t>(1, acc.rounds)),
         "count");
  m->Set("sched.critical_path_ms_p50", Quantile(acc.critical_path_ms, 0.5), "ms");
  m->Set("sched.tasks_per_query", (after.tasks - before.tasks) / queries, "count");
  m->Set("sched.steals_per_query", (after.steals - before.steals) / queries, "count");
  m->Set("step.issue_wait_us_p50", Quantile(DurationsUs(spans, kIssue), 0.5), "us");
  m->Set("step.cover_us", Quantile(DurationsUs(spans, kCover), 0.5), "us");
  m->Set("step.summary_us", Quantile(DurationsUs(spans, kSummary), 0.5), "us");
  m->Set("step.approximate_us", Quantile(DurationsUs(spans, kApproximate), 0.5), "us");
  m->Set("step.end_query_us", Quantile(DurationsUs(spans, kEndQuery), 0.5), "us");
  m->Set("step.exact_scan_us", Quantile(DurationsUs(spans, kExactScan), 0.5), "us");
  double calls = 0;
  for (const Span& s : spans) calls += (s.kind >= kCover && s.kind <= kEndQuery);
  m->Set("step.calls_per_query", calls / queries, "count");
  m->Set("storage.rows_scanned_per_query.approximate", Mean(acc.rows_approx), "rows");
  m->Set("storage.rows_scanned_per_query.exact", Mean(acc.rows_exact), "rows");
  m->Set("combine.us_per_query", Mean(acc.combine_us), "us");
  m->Set("net.sim_bytes_per_query", Mean(acc.sim_bytes), "bytes");
  double ledger_calls = 0;
  for (const Span& s : spans) ledger_calls += (s.kind >= kLedgerKnows && s.kind <= kLedgerOther);
  m->Set("ledger.knows_us", Quantile(DurationsUs(spans, kLedgerKnows), 0.5), "us");
  m->Set("ledger.charge_us", Quantile(DurationsUs(spans, kLedgerCharge), 0.5), "us");
  m->Set("ledger.saving_us", Quantile(DurationsUs(spans, kLedgerSaving), 0.5), "us");
  m->Set("ledger.calls_per_query",
         ledger_calls / std::max<double>(1.0, static_cast<double>(acc.answered_private)),
         "count");
  // Scheduler self time: each depth-1 query's wall minus the union of the
  // endpoint-call spans inside it (a call may start up to 10 ms before the
  // window, e.g. the previous query's release, and still overlap it).
  std::vector<std::pair<int64_t, int64_t>> calls_iv;
  for (const Span& s : spans) {
    if (s.kind >= kCover && s.kind <= kEndQuery) calls_iv.push_back({s.start_ns, s.end_ns});
  }
  std::sort(calls_iv.begin(), calls_iv.end());
  std::vector<double> self_us;
  for (const auto& w : acc.windows) {
    auto lo = std::lower_bound(calls_iv.begin(), calls_iv.end(),
                               std::make_pair(w.first - 10000000, int64_t{0}));
    auto hi = std::lower_bound(calls_iv.begin(), calls_iv.end(),
                               std::make_pair(w.second, int64_t{0}));
    std::vector<std::pair<int64_t, int64_t>> kids(lo, hi);
    self_us.push_back(SelfTimeNs(w.first, w.second, kids) / 1e3);
  }
  m->Set("sched.self_us_per_query", Quantile(self_us, 0.5), "us");
}

/// Rows per second ClusterStore::EvaluateExact scans over `stores`, timed
/// directly for about `seconds`, and that rate's read bandwidth as a
/// fraction of memcpy's on this host.
void ScanProbe(const std::vector<const fedaqp::ClusterStore*>& stores,
               const std::vector<Query>& queries, double seconds, Metrics* m) {
  double rows = 0;
  double bytes = 0;
  const int64_t t0 = NowNs();
  size_t i = 0;
  while (Seconds(NowNs() - t0) < seconds || i < queries.size()) {
    const fedaqp::RangeQuery& q = queries[i++ % queries.size()].query;
    const double cols = static_cast<double>(q.num_constrained_dims()) +
                        (q.aggregation() == Aggregation::kCount ? 0.0 : 1.0);
    for (const fedaqp::ClusterStore* s : stores) {
      (void)s->EvaluateExact(q);
      rows += static_cast<double>(s->TotalRows());
      bytes += static_cast<double>(s->TotalRows()) * cols * sizeof(fedaqp::Value);
    }
  }
  const double elapsed = Seconds(NowNs() - t0);
  m->Set("storage.scan_rows_per_s", rows / elapsed, "rows/s");
  m->Set("storage.scan_roofline_fraction",
         bytes / elapsed / MemcpyBytesPerSecond(), "ratio");
}

/// One span file per workload, overwritten by its next traced run (a
/// traced run writes tens of MB).
std::string SpanPath(const Args& a) {
  mkdir(kOutDir, 0755);
  return std::string(kOutDir) + "/" + a.workload + ".spans.jsonl";
}

/// Traced over untraced median private latency.
double OverheadRatio(const Accumulator& traced, const Accumulator& untraced) {
  return OverRounds(traced.approx_latency_ms, traced.round_approx_end, 0.5) /
         OverRounds(untraced.approx_latency_ms, untraced.round_approx_end, 0.5);
}

/// End-to-end metrics every workload reports. `latency` holds the private
/// latencies, `throughput` the per-round
/// private answers per second, `exact` the baseline's latencies. Timings
/// are taken over rounds (see OverRounds; the faster half by throughput
/// for qps).
void EndToEnd(double setup_s, const Accumulator& latency, const Accumulator& throughput,
              const Accumulator& exact, const std::vector<double>& rel_error,
              double eps_per_answer, double resident_bytes, Metrics* m) {
  m->Set("setup_s", setup_s, "s");
  m->Set("latency_ms_p50", OverRounds(latency.approx_latency_ms, latency.round_approx_end, 0.5),
         "ms");
  m->Set("latency_ms_p95",
         OverRounds(latency.approx_latency_ms, latency.round_approx_end, 0.95), "ms");
  m->Set("qps", HalfMean(throughput.round_qps, true), "1/s");
  m->Set("exact_latency_ms_p50",
         OverRounds(exact.exact_latency_ms, exact.round_exact_end, 0.5), "ms");
  m->Set("rel_error_p50", Quantile(rel_error, 0.5), "ratio");
  m->Set("eps_per_answer", eps_per_answer, "eps");
  m->Set("resident_mb", resident_bytes / (1024.0 * 1024.0), "MB");
}

/// Checks shared by every workload over one phase's answers.
void CommonChecks(const Accumulator& acc, const Ledger& ledger,
                  const std::vector<std::string>& analysts, Report* rep) {
  rep->Check(CheckExactAnswers(acc.exact_answers));
  rep->Check(CheckApproxWithinStderr(acc.approx_answers));
  rep->Check(CheckSpent(acc.spent, kEpsilon));
  double spent = 0;
  double saved = 0;
  for (const std::string& a : analysts) {
    spent += ledger.Spent(a);
    saved += ledger.Saved(a);
  }
  rep->Check(CheckLedgerTotals(spent, saved, acc.charged, acc.cache_served, kEpsilon));
}

// ======================================================= paper-speedup --

/// The paper's Fig. 7 setting in-process: an Amazon-like count tensor,
/// each distinct query once approximate and once exact, depth 1.
void PaperSpeedup(const Args& args, Report* rep) {
  const Tensor tensor = MakeTensor(AmazonLike(), 1400000, kDatasetSeed);
  const std::vector<Query> queries = MakeQueries(tensor, 1000, 5, args.seed);
  std::printf("inputs: %zu cells, %zu distinct queries, made in %.2f s\n",
              tensor.num_cells(), queries.size(), Seconds(NowNs() - g_start_ns));
  const uint64_t noise = NoiseSeed(args);
  fedaqp::FederationOptions fopts;
  fopts.cluster_capacity = Capacity(tensor);
  fopts.n_min = 16;
  fopts.layout = fedaqp::ClusterLayout::kShuffled;
  fopts.protocol = Protocol(0.05, noise);
  fopts.seed = noise;
  // The resident-set baseline holds the benchmark's own inputs, which stay
  // alive to the end; the tables handed to the library are built after it
  // and freed by the library once it has ingested them.
  malloc_trim(0);
  const double rss0 = ResidentBytes();
  std::vector<fedaqp::Table> parts = Partition(tensor, kProviders);

  const int64_t t0 = NowNs();
  auto fed = fedaqp::Federation::Open(std::move(parts), fopts);
  if (!fed.ok()) {
    std::fprintf(stderr, "open: %s\n", fed.status().ToString().c_str());
    std::exit(3);
  }
  const double setup_s = Seconds(NowNs() - t0);
  malloc_trim(0);
  FederationClient::Options copts;
  copts.protocol = fopts.protocol;

  // One measured phase: passes over the query pool, each pass running
  // every query approximate and then exact, at depth 1.
  auto phase = [&](const std::string& name, double seconds, SpanLog* log,
                   Accumulator* acc) {
    const std::string analyst = "analyst-" + name;
    copts.analysts = {{analyst, 1e18, 1e9, 1}};
    Ledger ledger = LocalLedger();
    auto client = MakeClient((*fed)->MakeEndpoints(), copts, ledger, log);
    const int64_t start = NowNs();
    size_t rounds = 0;
    do {
      // A round: every pool query approximate, then every one exact.
      const int64_t a0 = NowNs();
      ClosedLoop(client.get(), queries, QueryKind::kApproximate, analyst, 1, acc);
      const double approx_s = Seconds(NowNs() - a0);
      ClosedLoop(client.get(), queries, QueryKind::kExact, analyst, 1, acc);
      acc->EndRound(approx_s);
      if (++rounds == kFixedRounds) {
        acc->resident_bytes = MeasureResident(acc->FootprintBytes());
      }
    } while (rounds < kFixedRounds || Seconds(NowNs() - start) < seconds);
    acc->rounds = client->num_batches();
    client.reset();
    rep->Phase(name, acc->attempted, acc->failed);
    CommonChecks(*acc, ledger, {analyst}, rep);
    return ledger.Spent(analyst);
  };

  Accumulator acc;
  const double spent = phase("measured", args.trace ? args.seconds / 2 : args.seconds,
                             nullptr, &acc);
  if (!args.trace) {
    EndToEnd(setup_s, acc, acc, acc, acc.rel_error,
             spent / static_cast<double>(acc.answered_private),
             acc.resident_bytes - rss0, &rep->metrics);
    return;
  }
  SpanLog log;
  Accumulator tacc;
  const SchedCounters before = SchedCounters::Read();
  phase("traced", args.seconds / 2, &log, &tacc);
  const SchedCounters after = SchedCounters::Read();
  std::vector<Span> spans = log.Take();
  LayerMetrics(spans, tacc, before, after, &rep->metrics);
  rep->metrics.Set("trace.overhead_ratio", OverheadRatio(tacc, acc), "ratio");
  std::vector<const fedaqp::ClusterStore*> stores;
  for (size_t i = 0; i < (*fed)->num_providers(); ++i) {
    stores.push_back(&(*fed)->provider(i)->store());
  }
  ScanProbe(stores, queries, 1.0, &rep->metrics);
  SpanLog::Write(SpanPath(args), spans);
}

// ======================================================== loopback-rpc --

/// The same protocol over real sockets: four provider servers on
/// 127.0.0.1, each serving a provider opened from a compressed mapped
/// store file written during setup; distinct approximate queries at a
/// fixed depth.
void LoopbackRpc(const Args& args, Report* rep) {
  constexpr size_t kDepth = 4;
  constexpr size_t kExactSlice = 128;
  const Tensor tensor = MakeTensor(AdultLike(), 200000, kDatasetSeed);
  const std::vector<Query> queries = MakeQueries(tensor, 2048, 5, args.seed);
  std::printf("inputs: %zu cells, %zu distinct queries, made in %.2f s\n",
              tensor.num_cells(), queries.size(), Seconds(NowNs() - g_start_ns));
  const uint64_t noise = NoiseSeed(args);
  const size_t capacity = Capacity(tensor);
  mkdir(kOutDir, 0755);
  const std::string store_dir =
      std::string(kOutDir) + "/stores-" + std::to_string(getpid());
  mkdir(store_dir.c_str(), 0755);
  malloc_trim(0);
  const double rss0 = ResidentBytes();
  std::vector<fedaqp::Table> parts = Partition(tensor, kProviders);

  const int64_t t0 = NowNs();
  std::vector<std::unique_ptr<fedaqp::DataProvider>> providers;
  std::vector<std::unique_ptr<fedaqp::RpcProviderServer>> servers;
  std::vector<std::string> paths;
  std::vector<std::string> host_ports;
  for (size_t i = 0; i < kProviders; ++i) {
    fedaqp::ClusterStoreOptions so;
    so.cluster_capacity = capacity;
    so.layout = fedaqp::ClusterLayout::kShuffled;
    so.shuffle_seed = SubSeed(args.seed, 10 + i);
    paths.push_back(store_dir + "/provider" + std::to_string(i) + ".store");
    {
      auto built = fedaqp::ClusterStore::Build(parts[i], so);
      if (!built.ok() || !built->SaveMapped(paths.back()).ok()) {
        std::fprintf(stderr, "store build/save failed\n");
        std::exit(3);
      }
    }
    parts[i] = fedaqp::Table();
    auto store = fedaqp::ClusterStore::OpenMapped(paths.back());
    fedaqp::DataProvider::Options po;
    po.n_min = 16;
    po.seed = SubSeed(noise, 20 + i);
    po.name = "provider" + std::to_string(i);
    auto provider = store.ok() ? fedaqp::DataProvider::CreateFromStore(
                                     std::move(store).value(), po)
                               : fedaqp::Result<std::unique_ptr<fedaqp::DataProvider>>(
                                     store.status());
    if (!provider.ok()) {
      std::fprintf(stderr, "provider: %s\n", provider.status().ToString().c_str());
      std::exit(3);
    }
    providers.push_back(std::move(provider).value());
    auto server = fedaqp::RpcProviderServer::Start(providers.back().get());
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
      std::exit(3);
    }
    host_ports.push_back("127.0.0.1:" + std::to_string((*server)->port()));
    servers.push_back(std::move(server).value());
  }
  auto remote = fedaqp::RemoteEndpoint::ConnectAll(host_ports);
  if (!remote.ok()) {
    std::fprintf(stderr, "connect: %s\n", remote.status().ToString().c_str());
    std::exit(3);
  }
  const double setup_s = Seconds(NowNs() - t0);
  parts.clear();
  malloc_trim(0);
  std::vector<fedaqp::RemoteEndpoint*> wires;
  for (const auto& e : *remote) wires.push_back(static_cast<fedaqp::RemoteEndpoint*>(e.get()));
  struct Wire {
    uint64_t moved = 0, overhead = 0, batches = 0, coalesced = 0;
  };
  auto read_wire = [&] {
    Wire w;
    for (auto* e : wires) {
      w.moved += e->bytes_sent() + e->bytes_received();
      w.overhead += e->batch_overhead_bytes();
      w.batches += e->doorbell_batches();
      w.coalesced += e->coalesced_calls();
    }
    return w;
  };

  FederationClient::Options copts;
  copts.protocol = Protocol(0.1, noise);
  auto phase = [&](const std::string& name,
                   const std::vector<std::shared_ptr<fedaqp::ProviderEndpoint>>& endpoints,
                   bool over_wire, double seconds, SpanLog* log, Accumulator* acc) {
    const std::string analyst = "analyst-" + name;
    copts.analysts = {{analyst, 1e18, 1e9, 1}};
    Ledger ledger = LocalLedger();
    const Wire w0 = read_wire();
    auto client = MakeClient(endpoints, copts, ledger, log);
    // A round: every pool query approximate at kDepth, then the next
    // kExactSlice pool queries exact at depth 1.
    const int64_t start = NowNs();
    size_t exact_at = 0;
    size_t rounds = 0;
    do {
      const int64_t a0 = NowNs();
      ClosedLoop(client.get(), queries, QueryKind::kApproximate, analyst, kDepth, acc);
      const double approx_s = Seconds(NowNs() - a0);
      std::vector<Query> slice(queries.begin() + exact_at,
                               queries.begin() + exact_at + kExactSlice);
      exact_at = (exact_at + kExactSlice) % queries.size();
      ClosedLoop(client.get(), slice, QueryKind::kExact, analyst, 1, acc);
      acc->EndRound(approx_s);
      if (++rounds == kFixedRounds) {
        acc->resident_bytes = MeasureResident(acc->FootprintBytes());
      }
    } while (rounds < kFixedRounds || Seconds(NowNs() - start) < seconds);
    acc->rounds = client->num_batches();
    client.reset();
    rep->Phase(name, acc->attempted, acc->failed);
    CommonChecks(*acc, ledger, {analyst}, rep);
    if (over_wire) {
      const Wire w1 = read_wire();
      rep->Check(CheckWireBytes(w1.moved, w0.moved, w1.overhead - w0.overhead,
                                acc->charged_network_bytes));
      std::vector<size_t> open;
      for (const auto& s : servers) open.push_back(s->num_open_sessions());
      rep->Check(CheckSessionsDrained(open));
    }
    return ledger.Spent(analyst);
  };

  Accumulator acc;
  const double spent = phase("measured", *remote, true,
                             args.trace ? args.seconds * 0.4 : args.seconds, nullptr, &acc);
  if (!args.trace) {
    EndToEnd(setup_s, acc, acc, acc, acc.rel_error,
             spent / static_cast<double>(acc.answered_private),
             acc.resident_bytes - rss0, &rep->metrics);
  } else {
    // Traced over the wire, then the same calls traced in-process on the
    // same providers: the difference per call is the RPC overhead.
    SpanLog log;
    Accumulator tacc;
    const Wire w0 = read_wire();
    const SchedCounters before = SchedCounters::Read();
    phase("traced", *remote, true, args.seconds * 0.4, &log, &tacc);
    const SchedCounters after = SchedCounters::Read();
    const Wire w1 = read_wire();
    std::vector<Span> spans = log.Take();
    Metrics* m = &rep->metrics;
    LayerMetrics(spans, tacc, before, after, m);
    m->Set("trace.overhead_ratio", OverheadRatio(tacc, acc), "ratio");
    const double queries_run = static_cast<double>(tacc.attempted);
    double calls = 0;
    for (const Span& s : spans) calls += (s.kind >= kCover && s.kind <= kEndQuery);
    const double frames = calls - static_cast<double>(w1.coalesced - w0.coalesced) +
                          static_cast<double>(w1.batches - w0.batches);
    m->Set("rpc.bytes_per_query", static_cast<double>(w1.moved - w0.moved) / queries_run,
           "bytes");
    m->Set("rpc.calls_per_frame", calls / std::max(1.0, frames), "count");

    SpanLog local_log;
    Accumulator lacc;
    std::vector<fedaqp::DataProvider*> raw;
    for (auto& p : providers) raw.push_back(p.get());
    auto local = fedaqp::MakeInProcessEndpoints(raw);
    phase("in-process", *local, false, args.seconds * 0.15, &local_log, &lacc);
    std::vector<Span> local_spans = local_log.Take();
    for (uint8_t kind : {kCover, kSummary, kApproximate, kExactScan, kEndQuery}) {
      const double wire_us = Quantile(DurationsUs(spans, kind), 0.5);
      const double local_us = Quantile(DurationsUs(local_spans, kind), 0.5);
      m->Set(std::string("rpc.roundtrip_us.") + SpanName(kind), wire_us, "us");
      m->Set(std::string("rpc.overhead_us.") + SpanName(kind), wire_us - local_us, "us");
    }
    std::vector<const fedaqp::ClusterStore*> stores;
    double mapped = 0;
    for (auto& p : providers) {
      stores.push_back(&p->store());
      mapped += static_cast<double>(p->store().MappedBytes());
    }
    m->Set("storage.mapped_bytes", mapped, "bytes");
    ScanProbe(stores, queries, 0.5, m);
    SpanLog::Write(SpanPath(args), spans);
  }
  remote->clear();
  wires.clear();
  for (auto& s : servers) s->Stop();
  servers.clear();
  providers.clear();
  for (const std::string& p : paths) std::remove(p.c_str());
  rmdir(store_dir.c_str());
}

// ========================================================= serving-mix --

/// 2-D prefix sums of COUNT and SUM over every pair of dimensions: exact
/// ground truth for two-dimensional ranges in O(1), so the serving stream
/// can be long and still checked query by query.
class PairCube {
 public:
  explicit PairCube(const Tensor& t) : t_(t) {
    const size_t d = t.dims.size();
    tables_.resize(d * d);
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = a + 1; b < d; ++b) {
        const size_t na = static_cast<size_t>(t.dims[a].domain) + 1;
        const size_t nb = static_cast<size_t>(t.dims[b].domain) + 1;
        Table& tab = tables_[a * d + b];
        tab.nb = nb;
        tab.count.assign(na * nb, 0);
        tab.sum.assign(na * nb, 0);
        for (size_t i = 0; i < t.num_cells(); ++i) {
          const size_t k = (t.cols[a][i] + 1) * nb + (t.cols[b][i] + 1);
          tab.count[k] += 1;
          tab.sum[k] += t.measure[i];
        }
        for (size_t x = 1; x < na; ++x) {
          for (size_t y = 1; y < nb; ++y) {
            const size_t k = x * nb + y;
            tab.count[k] += tab.count[k - nb] + tab.count[k - 1] - tab.count[k - nb - 1];
            tab.sum[k] += tab.sum[k - nb] + tab.sum[k - 1] - tab.sum[k - nb - 1];
          }
        }
      }
    }
  }
  /// Truth of a query over one or two dimensions.
  int64_t Truth(const fedaqp::RangeQuery& q) const {
    const auto& r = q.ranges();
    fedaqp::DimRange a = r[0];
    fedaqp::DimRange b = r.size() > 1 ? r[1] : fedaqp::DimRange{a.dim_index == 0 ? 1u : 0u, 0,
                                                                 t_.dims[a.dim_index == 0 ? 1 : 0].domain - 1};
    if (a.dim_index > b.dim_index) std::swap(a, b);
    const size_t d = t_.dims.size();
    const Table& tab = tables_[a.dim_index * d + b.dim_index];
    const std::vector<int64_t>& v =
        q.aggregation() == Aggregation::kCount ? tab.count : tab.sum;
    auto at = [&](int64_t x, int64_t y) {
      return v[static_cast<size_t>(x) * tab.nb + static_cast<size_t>(y)];
    };
    return at(a.hi + 1, b.hi + 1) - at(a.lo, b.hi + 1) - at(a.hi + 1, b.lo) + at(a.lo, b.lo);
  }

 private:
  struct Table {
    size_t nb = 0;
    std::vector<int64_t> count;
    std::vector<int64_t> sum;
  };
  const Tensor& t_;
  std::vector<Table> tables_;
};

/// A serving query stream, a pure function of its seed: distinct
/// two-dimensional queries, a fixed share of exact repeats of an earlier
/// query of the same analyst in the same stream, and a fixed share of
/// single-dimension ranges on a grid whose pieces overlap and tile (so the
/// cache can compose them).
class ServingStream {
 public:
  static constexpr size_t kAnalysts = 4;
  /// The reuse mix of bench/dp_cache.cc's budget-saving gate: 30% exact
  /// repeats and 30% overlapping ranges; the other 40% are distinct.
  static constexpr double kRepeatShare = 0.3;
  static constexpr double kOverlapShare = 0.3;
  /// serve::LoadMix's default priority mix: 20% high, 20% low.
  static constexpr double kHighShare = 0.2;
  static constexpr double kLowShare = 0.2;
  struct Item {
    QuerySpec spec;
    int64_t truth;
    /// Submission index of the query this one repeats (its own if none).
    uint64_t repeat_of;
  };

  ServingStream(const Tensor& t, const PairCube& cube, uint64_t seed,
                const std::string& prefix)
      : t_(t), cube_(cube), rng_(seed), prefix_(prefix) {}

  /// Approximate bytes the stream's memory of past queries occupies
  /// (each query's two ranges sit in a 64-byte heap block).
  double FootprintBytes() const {
    return static_cast<double>(originals_.size() * (sizeof(Query) + 64 + 8 + 4));
  }

  /// The next query; `index` is the submission index it will get.
  Item Next(uint64_t index) {
    const size_t analyst = rng_.Below(kAnalysts);
    const double kind = rng_.Uniform();
    const double prio = rng_.Uniform();
    Item item;
    item.repeat_of = index;
    item.spec.analyst = prefix_ + std::to_string(analyst);
    item.spec.priority = prio < kHighShare         ? QueryPriority::kHigh
                         : prio < 1.0 - kLowShare ? QueryPriority::kNormal
                                                  : QueryPriority::kLow;
    std::vector<uint32_t>& history = history_[analyst];
    if (kind < kRepeatShare && !history.empty()) {
      const uint32_t orig = history[rng_.Below(history.size())];
      const Query& o = originals_[orig];
      item.spec.query = o.query;
      item.truth = o.truth;
      item.repeat_of = original_index_[orig];
    } else if (kind < kRepeatShare + kOverlapShare) {
      // Ages on a grid of 8: [8a, 8b-1] with 1 <= a < b <= 8.
      const int64_t a = 1 + static_cast<int64_t>(rng_.Below(7));
      const int64_t b = a + 1 + static_cast<int64_t>(rng_.Below(8 - a));
      item.spec.query = fedaqp::RangeQuery(Aggregation::kCount, {{0, 8 * a, 8 * b - 1}});
      item.truth = cube_.Truth(item.spec.query);
    } else {
      const double total_count = static_cast<double>(t_.num_cells());
      const double total_sum = static_cast<double>(t_.total_measure());
      for (;;) {
        const Aggregation agg = rng_.Below(2) == 0 ? Aggregation::kCount : Aggregation::kSum;
        fedaqp::RangeQuery q = RandomRange(t_, 2, agg, &rng_);
        const int64_t truth = cube_.Truth(q);
        const double total = agg == Aggregation::kCount ? total_count : total_sum;
        if (static_cast<double>(truth) >= 0.01 * total) {
          item.spec.query = std::move(q);
          item.truth = truth;
          break;
        }
      }
      history.push_back(static_cast<uint32_t>(originals_.size()));
      originals_.push_back({item.spec.query, item.truth});
      original_index_.push_back(index);
    }
    return item;
  }

 private:
  const Tensor& t_;
  const PairCube& cube_;
  Rng rng_;
  std::string prefix_;
  /// Per analyst, positions in originals_ of the queries it asked.
  std::vector<uint32_t> history_[kAnalysts];
  /// The distinct queries so far (what repeats point at), and the
  /// submission index of each.
  std::vector<Query> originals_;
  std::vector<uint64_t> original_index_;
};

/// Multi-analyst serving in-process: DWRR fair admission, the noisy-answer
/// cache, and every charge through a LedgerService on loopback. An
/// open-loop phase at a fixed Poisson rate, then a saturation phase with a
/// fixed number of outstanding tickets.
void ServingMix(const Args& args, Report* rep) {
  // A chosen rate, well below saturation (4-7k q/s on a 4-vCPU shared
  // host, under 1k q/s while other tenants load it heavily), so open-loop
  // latency measures service, not a growing backlog; 2.4 s gives each
  // round about 1200 arrivals, 60 of them beyond its p95.
  constexpr double kOfferedQps = 500.0;
  constexpr double kOpenSeconds = 2.4;
  // A fixed count, not a fixed time, so every round does the same work and
  // the cache (which keeps every purchase) grows by the same amount per
  // round whatever the host's speed.
  constexpr size_t kSaturationQueries = 4000;
  // The resident set grows with the queries served (the cache keeps every
  // purchase) and the cache's hit share with the purchases before, so both
  // are read after kFixedRounds.
  constexpr size_t kSaturationDepth = 16;
  constexpr size_t kExactSlice = 64;
  const Tensor tensor = MakeTensor(AdultLike(), 200000, kDatasetSeed);
  const PairCube cube(tensor);
  // The exact baseline: 128 two-dimensional queries of their own stream.
  std::vector<Query> exact_queries;
  {
    Rng rng(SubSeed(args.seed, 40));
    while (exact_queries.size() < 128) {
      fedaqp::RangeQuery q = RandomRange(tensor, 2, Aggregation::kCount, &rng);
      const int64_t truth = cube.Truth(q);
      if (static_cast<double>(truth) >= 0.01 * static_cast<double>(tensor.num_cells())) {
        exact_queries.push_back({std::move(q), truth});
      }
    }
  }
  std::printf("inputs: %zu cells, made in %.2f s\n", tensor.num_cells(),
              Seconds(NowNs() - g_start_ns));
  const uint64_t noise = NoiseSeed(args);
  fedaqp::FederationOptions fopts;
  fopts.cluster_capacity = Capacity(tensor);
  fopts.n_min = 16;
  fopts.layout = fedaqp::ClusterLayout::kShuffled;
  fopts.protocol = Protocol(0.1, noise);
  fopts.seed = noise;
  malloc_trim(0);
  const double rss0 = ResidentBytes();
  std::vector<fedaqp::Table> parts = Partition(tensor, kProviders);

  const int64_t t0 = NowNs();
  auto fed = fedaqp::Federation::Open(std::move(parts), fopts);
  if (!fed.ok()) {
    std::fprintf(stderr, "open: %s\n", fed.status().ToString().c_str());
    std::exit(3);
  }
  auto service = fedaqp::serve::LedgerService::Start({});
  if (!service.ok()) {
    std::fprintf(stderr, "ledger service: %s\n", service.status().ToString().c_str());
    std::exit(3);
  }
  auto remote = fedaqp::serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(), 1);
  if (!remote.ok()) {
    std::fprintf(stderr, "ledger connect: %s\n", remote.status().ToString().c_str());
    std::exit(3);
  }
  const double setup_s = Seconds(NowNs() - t0);
  malloc_trim(0);

  // One LedgerService connection per client: the service deduplicates
  // mutations by (coordinator id, admission seq), and every client numbers
  // its admissions from 1.
  uint32_t coordinator = 1;
  auto connect_ledger = [&] {
    Ledger l;
    if (coordinator == 1) {
      l.remote = *remote;
    } else {
      auto more = fedaqp::serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(),
                                                      coordinator);
      if (!more.ok()) {
        std::fprintf(stderr, "ledger connect: %s\n", more.status().ToString().c_str());
        std::exit(3);
      }
      l.remote = *more;
    }
    ++coordinator;
    l.backend = l.remote;
    return l;
  };

  struct PhaseOut {
    Accumulator open;
    Accumulator saturated;
    Accumulator exact;
    /// Both phases plus the exact baseline.
    Accumulator all;
    std::vector<double> lateness_ms;
    fedaqp::NoisyAnswerCache::CacheStats cache;
    /// Read at the end of round kFixedRounds.
    double resident_bytes = 0;
    size_t fixed_open_answers = 0;
  };
  auto phase = [&](const std::string& name, double seconds, SpanLog* log, PhaseOut* out) {
    const std::string prefix = name + "-analyst";
    FederationClient::Options copts;
    copts.protocol = fopts.protocol;
    copts.fair_admission = true;
    copts.enable_cache = true;
    // bench/serving.cc's four-analyst DWRR weights.
    const uint32_t weights[ServingStream::kAnalysts] = {1, 2, 4, 8};
    for (size_t a = 0; a < ServingStream::kAnalysts; ++a) {
      copts.analysts.push_back({prefix + std::to_string(a), 1e18, 1e9, weights[a]});
    }
    const Ledger ledger = connect_ledger();
    auto client = MakeClient((*fed)->MakeEndpoints(), copts, ledger, log);
    // The open-loop and saturation segments draw from streams of their own,
    // so what the open loop asks does not depend on how many queries the
    // saturated segments managed to run.
    ServingStream open_stream(tensor, cube, SubSeed(args.seed, 30), prefix);
    ServingStream sat_stream(tensor, cube, SubSeed(args.seed, 32), prefix);
    /// Per submitted query, the submission index of the query it repeats.
    std::vector<uint64_t> repeat_of;
    std::vector<RepeatPair> repeats;

    // Rounds of three segments: kOpenSeconds of Poisson arrivals at
    // kOfferedQps (a collector thread waits for answers in submission
    // order), then kSaturationQueries with kSaturationDepth outstanding
    // tickets, then kExactSlice baseline queries at depth 1.
    struct Sent {
      QueryTicket ticket;
      int64_t submitted;
      /// Submission time minus due time (0 in the saturated segments).
      int64_t late;
      int64_t truth;
      uint64_t index;
    };
    Rng arrivals(SubSeed(args.seed, 31));
    Accumulator exact;
    size_t exact_at = 0;
    size_t rounds = 0;
    const int64_t start = NowNs();
    do {
      std::mutex mu;
      std::condition_variable cv;
      std::deque<Sent> sent;
      bool done = false;
      std::thread collector([&] {
        for (;;) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !sent.empty(); });
          if (sent.empty()) return;
          Sent s = std::move(sent.front());
          sent.pop_front();
          lock.unlock();
          out->open.Record(s.ticket, s.truth, s.submitted, s.late, false, s.index);
        }
      });
      const int64_t open_start = NowNs();
      double due_s = 0;
      for (;;) {
        due_s += arrivals.Exponential(kOfferedQps);
        if (due_s >= kOpenSeconds) break;
        const int64_t due = open_start + static_cast<int64_t>(due_s * 1e9);
        ServingStream::Item it = open_stream.Next(repeat_of.size());
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const int64_t submitted = NowNs();
        out->lateness_ms.push_back(1e3 * Seconds(submitted - due));
        QueryTicket t = client->Submit(it.spec);
        {
          std::lock_guard<std::mutex> lock(mu);
          sent.push_back({std::move(t), submitted, submitted - due, it.truth, repeat_of.size()});
        }
        cv.notify_one();
        repeat_of.push_back(it.repeat_of);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
      }
      cv.notify_one();
      collector.join();
      out->open.EndRound(0);

      std::deque<Sent> inflight;
      const int64_t sat_start = NowNs();
      auto finish_oldest = [&] {
        Sent& s = inflight.front();
        out->saturated.Record(s.ticket, s.truth, s.submitted, s.late, false, s.index);
        inflight.pop_front();
      };
      for (size_t n = 0; n < kSaturationQueries; ++n) {
        if (inflight.size() >= kSaturationDepth) finish_oldest();
        ServingStream::Item it = sat_stream.Next(repeat_of.size());
        inflight.push_back({client->Submit(it.spec), NowNs(), 0, it.truth, repeat_of.size()});
        repeat_of.push_back(it.repeat_of);
      }
      while (!inflight.empty()) finish_oldest();
      out->saturated.EndRound(Seconds(NowNs() - sat_start));

      std::vector<Query> slice(exact_queries.begin() + exact_at,
                               exact_queries.begin() + exact_at + kExactSlice);
      exact_at = (exact_at + kExactSlice) % exact_queries.size();
      ClosedLoop(client.get(), slice, QueryKind::kExact, "", 1, &exact);
      exact.EndRound(0);
      if (++rounds == kFixedRounds) {
        out->fixed_open_answers = out->open.spent.size();
        out->resident_bytes = MeasureResident(
            out->open.FootprintBytes() + out->saturated.FootprintBytes() +
            exact.FootprintBytes() + open_stream.FootprintBytes() +
            sat_stream.FootprintBytes() +
            8.0 * static_cast<double>(repeat_of.size() + out->lateness_ms.size()));
      }
    } while (rounds < kFixedRounds || Seconds(NowNs() - start) < seconds);
    rep->Phase(name + "/open-loop", out->open.attempted, out->open.failed);
    rep->Phase(name + "/saturation", out->saturated.attempted, out->saturated.failed);
    rep->Phase(name + "/exact", exact.attempted, exact.failed);
    exact.rounds = client->num_batches();
    out->cache = client->cache()->stats();
    client.reset();

    // Checks over all phases: each repeat against the answer it repeats,
    // then the shared checks with the ledger read back over the wire.
    Merge(out->open, &out->all);
    Merge(out->saturated, &out->all);
    Merge(exact, &out->all);
    out->exact = std::move(exact);
    std::vector<double> by_index(repeat_of.size(), std::nan(""));
    for (const auto& e : out->all.estimates) by_index[e.first] = e.second;
    for (size_t i = 0; i < repeat_of.size(); ++i) {
      if (repeat_of[i] != i) repeats.push_back({by_index[repeat_of[i]], by_index[i]});
    }
    rep->Check(CheckRepeatsVerbatim(repeats));
    std::vector<std::string> analysts;
    for (size_t a = 0; a < ServingStream::kAnalysts; ++a) {
      analysts.push_back(prefix + std::to_string(a));
    }
    CommonChecks(out->all, ledger, analysts, rep);
    // epsilon per answer over the open loop of the first kFixedRounds
    // rounds, whose stream, rate and preceding purchases are fixed; under
    // 16 outstanding tickets, whether a repeat finds its purchase already
    // cached depends on timing. The ledger check above ties this tally to
    // the ledger's totals.
    double spent = 0;
    for (size_t i = 0; i < out->fixed_open_answers; ++i) {
      spent += out->open.spent[i].spent_epsilon;
    }
    return spent / static_cast<double>(std::max<size_t>(1, out->fixed_open_answers));
  };

  PhaseOut out;
  const double eps_per_answer =
      phase("measured", args.trace ? args.seconds / 2 : args.seconds, nullptr, &out);
  std::printf("generator lateness: p50 %.4f ms, p99 %.4f ms over %zu arrivals\n",
              Quantile(out.lateness_ms, 0.5), Quantile(out.lateness_ms, 0.99),
              out.lateness_ms.size());
  if (!args.trace) {
    EndToEnd(setup_s, out.open, out.saturated, out.exact, out.all.rel_error, eps_per_answer,
             out.resident_bytes - rss0, &rep->metrics);
  } else {
    SpanLog log;
    PhaseOut tout;
    const SchedCounters before = SchedCounters::Read();
    phase("traced", args.seconds / 2, &log, &tout);
    const SchedCounters after = SchedCounters::Read();
    std::vector<Span> spans = log.Take();
    Metrics* m = &rep->metrics;
    LayerMetrics(spans, tout.all, before, after, m);
    m->Set("trace.overhead_ratio", OverheadRatio(tout.open, out.open), "ratio");
    const double lookups = static_cast<double>(std::max<uint64_t>(1, tout.cache.lookups));
    m->Set("cache.hit_ratio", static_cast<double>(tout.cache.exact_hits) / lookups, "ratio");
    m->Set("cache.composed_ratio",
           static_cast<double>(tout.cache.full_compositions + tout.cache.partial_compositions) /
               lookups,
           "ratio");
    m->Set("loadgen.lateness_ms_p99", Quantile(tout.lateness_ms, 0.99), "ms");
    SpanLog::Write(SpanPath(args), spans);
  }
  remote->reset();
  (*service)->Stop();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  g_start_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <paper-speedup|loopback-rpc|"
                 "serving-mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--noise-seed <n>]\n");
    return 2;
  }
  Report rep;
  if (args.workload == "paper-speedup") {
    PaperSpeedup(args, &rep);
  } else if (args.workload == "loopback-rpc") {
    LoopbackRpc(args, &rep);
  } else {
    ServingMix(args, &rep);
  }
  rep.Check(CheckNoFailedOperations(rep.attempted, rep.failed));
  bool correct = true;
  for (const CheckResult& c : rep.checks) correct = correct && c.ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (size_t i = 0; i < rep.metrics.items.size(); ++i) {
    const auto& it = rep.metrics.items[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                it.first.c_str(), it.second.first, it.second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
