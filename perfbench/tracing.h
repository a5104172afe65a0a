// The traced run's instrumentation: decorators around the library's two
// public seams (ProviderEndpoint and serve::LedgerBackend) that record a
// span per call, an in-memory span log written out when the run ends, and
// the self-time derivation. All spans come from these benchmark files; the
// library itself is not modified or rebuilt for tracing.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/endpoint.h"
#include "serve/ledger_backend.h"

namespace perfbench {

/// Nanoseconds on the steady clock the whole benchmark shares.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names. Endpoint calls, the dispatch issue that wraps them, and
/// ledger operations.
enum SpanKind : uint8_t {
  kIssue = 0,
  kCover,
  kSummary,
  kApproximate,
  kExactAnswer,
  kExactScan,
  kEndQuery,
  kLedgerKnows,
  kLedgerCharge,
  kLedgerSaving,
  kLedgerOther,
  kNumSpanKinds
};

inline const char* SpanName(uint8_t kind) {
  static const char* kNames[kNumSpanKinds] = {
      "issue",        "cover",      "summary",       "approximate",
      "exact_answer", "exact_scan", "end_query",     "ledger.knows",
      "ledger.charge", "ledger.saving", "ledger.other"};
  return kind < kNumSpanKinds ? kNames[kind] : "?";
}

/// One recorded interval. `parent` is the id of the span that caused it
/// (an endpoint call's dispatch issue), 0 for none; `query` is the
/// protocol session id the call belonged to (0 for the sessionless exact
/// scan and for ledger operations, which carry admission seqs instead).
struct Span {
  uint64_t id;
  uint64_t parent;
  uint64_t query;
  int64_t start_ns;
  int64_t end_ns;
  uint8_t kind;
  uint8_t endpoint;
};

/// Spans kept in memory until the run ends.
class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const Span& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }
  /// Writes spans as JSON lines (one object per span).
  static bool Write(const std::string& path, const std::vector<Span>& spans) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"query\":%llu,\"name\":\"%s\","
                   "\"endpoint\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.query), SpanName(s.kind),
                   static_cast<unsigned>(s.endpoint),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The issue span an endpoint call runs under, if any (set while an
/// IssueAsync closure runs on this thread).
inline uint64_t& CurrentIssue() {
  thread_local uint64_t id = 0;
  return id;
}

/// ProviderEndpoint decorator: forwards every call to `inner` and records
/// a span for it. IssueAsync wraps the scheduler's closure so the time from
/// issue to the closure's start (dispatch wait) is recorded too.
class TracingEndpoint final : public fedaqp::ProviderEndpoint {
 public:
  TracingEndpoint(std::shared_ptr<fedaqp::ProviderEndpoint> inner,
                  uint8_t index, SpanLog* log)
      : inner_(std::move(inner)), index_(index), log_(log) {}

  const fedaqp::EndpointInfo& info() const override { return inner_->info(); }

  fedaqp::Result<fedaqp::CoverReply> Cover(
      const fedaqp::CoverRequest& r) override {
    return Timed(kCover, r.query_id, [&] { return inner_->Cover(r); });
  }
  fedaqp::Result<fedaqp::SummaryReply> PublishSummary(
      const fedaqp::SummaryRequest& r) override {
    return Timed(kSummary, r.query_id, [&] { return inner_->PublishSummary(r); });
  }
  fedaqp::Result<fedaqp::EstimateReply> Approximate(
      const fedaqp::ApproximateRequest& r) override {
    return Timed(kApproximate, r.query_id, [&] { return inner_->Approximate(r); });
  }
  fedaqp::Result<fedaqp::EstimateReply> ExactAnswer(
      const fedaqp::ExactAnswerRequest& r) override {
    return Timed(kExactAnswer, r.query_id, [&] { return inner_->ExactAnswer(r); });
  }
  fedaqp::Result<fedaqp::ExactScanReply> ExactFullScan(
      const fedaqp::ExactScanRequest& r) override {
    return Timed(kExactScan, 0, [&] { return inner_->ExactFullScan(r); });
  }
  void EndQuery(uint64_t query_id) override {
    Timed(kEndQuery, query_id, [&] {
      inner_->EndQuery(query_id);
      return 0;
    });
  }
  void IssueAsync(std::function<void()> call) override {
    const uint64_t id = log_->NextId();
    const int64_t issued = NowNs();
    SpanLog* log = log_;
    const uint8_t index = index_;
    inner_->IssueAsync([call = std::move(call), id, issued, log, index] {
      // The dispatch wait: issue until the closure starts.
      log->Add({id, 0, 0, issued, NowNs(), kIssue, index});
      uint64_t& current = CurrentIssue();
      const uint64_t saved = current;
      current = id;
      call();
      current = saved;
    });
  }
  size_t max_concurrent_calls() const override {
    return inner_->max_concurrent_calls();
  }
  void ConfigureScanSharding(fedaqp::ThreadPool* pool, size_t shards) override {
    inner_->ConfigureScanSharding(pool, shards);
  }

 private:
  template <typename Fn>
  auto Timed(uint8_t kind, uint64_t query, Fn&& fn) -> decltype(fn()) {
    const int64_t start = NowNs();
    auto out = fn();
    log_->Add({log_->NextId(), CurrentIssue(), query, start, NowNs(), kind, index_});
    return out;
  }

  std::shared_ptr<fedaqp::ProviderEndpoint> inner_;
  uint8_t index_;
  SpanLog* log_;
};

inline std::vector<std::shared_ptr<fedaqp::ProviderEndpoint>> WrapEndpoints(
    const std::vector<std::shared_ptr<fedaqp::ProviderEndpoint>>& inner,
    SpanLog* log) {
  std::vector<std::shared_ptr<fedaqp::ProviderEndpoint>> out;
  for (size_t i = 0; i < inner.size(); ++i) {
    out.push_back(std::make_shared<TracingEndpoint>(
        inner[i], static_cast<uint8_t>(i), log));
  }
  return out;
}

/// serve::LedgerBackend decorator: one span per budget operation.
class TracingLedger final : public fedaqp::serve::LedgerBackend {
 public:
  TracingLedger(std::shared_ptr<fedaqp::serve::LedgerBackend> inner,
                SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  fedaqp::Status Register(const std::string& a, double xi, double psi) override {
    return Timed(kLedgerOther, [&] { return inner_->Register(a, xi, psi); });
  }
  fedaqp::Result<bool> Knows(const std::string& a) const override {
    return Timed(kLedgerKnows, [&] { return inner_->Knows(a); });
  }
  fedaqp::Status Charge(const std::string& a, const fedaqp::PrivacyBudget& c,
                        uint64_t seq) override {
    return Timed(kLedgerCharge, [&] { return inner_->Charge(a, c, seq); });
  }
  fedaqp::Status Refund(const std::string& a, const fedaqp::PrivacyBudget& c,
                        uint64_t seq) override {
    return Timed(kLedgerOther, [&] { return inner_->Refund(a, c, seq); });
  }
  void RecordSaving(const std::string& a, const fedaqp::PrivacyBudget& c,
                    uint64_t seq) override {
    Timed(kLedgerSaving, [&] {
      inner_->RecordSaving(a, c, seq);
      return 0;
    });
  }
  fedaqp::Result<fedaqp::PrivacyBudget> Remaining(
      const std::string& a) const override {
    return Timed(kLedgerOther, [&] { return inner_->Remaining(a); });
  }
  fedaqp::Result<fedaqp::PrivacyBudget> Spent(
      const std::string& a) const override {
    return Timed(kLedgerOther, [&] { return inner_->Spent(a); });
  }

 private:
  template <typename Fn>
  auto Timed(uint8_t kind, Fn&& fn) const -> decltype(fn()) {
    const int64_t start = NowNs();
    auto out = fn();
    log_->Add({log_->NextId(), 0, 0, start, NowNs(), kind, 0});
    return out;
  }

  std::shared_ptr<fedaqp::serve::LedgerBackend> inner_;
  SpanLog* log_;
};

/// Spans of one kind, as durations in microseconds.
inline std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                       uint8_t kind) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.kind == kind) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

/// Self time of a window [start, end): its length minus the part of it
/// covered by the union of the given child intervals (sorted by start).
inline int64_t SelfTimeNs(int64_t start, int64_t end,
                          const std::vector<std::pair<int64_t, int64_t>>& kids) {
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& k : kids) {
    const int64_t lo = std::max(k.first, start);
    const int64_t hi = std::min(k.second, end);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
    } else {
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
  }
  if (open) covered += cur_hi - cur_lo;
  return (end - start) - covered;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
