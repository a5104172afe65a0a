// Correctness checks of the repository benchmark. Each compares what the
// library answered with what the benchmark computed on its own (ground
// truth from its own scan, its own tally of charged and cache-served
// queries), never with a stored copy of an earlier run and never with a
// particular noise draw. checks_test.cc feeds every check a wrong answer.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Every operation the run attempted got an answer: a failed query is left
/// out of every other check, so a run that loses queries must fail here.
inline CheckResult CheckNoFailedOperations(uint64_t attempted, uint64_t failed) {
  CheckResult r{"no_failed_operations", true, ""};
  r.ok = failed == 0 && attempted > 0;
  r.detail = std::to_string(failed) + " of " + std::to_string(attempted) + " failed";
  return r;
}

/// Every non-private kExact answer equals the benchmark's own full scan.
struct ExactAnswer {
  double answer;
  int64_t truth;
};
inline CheckResult CheckExactAnswers(const std::vector<ExactAnswer>& answers) {
  CheckResult r{"exact_equals_own_scan", true, ""};
  size_t bad = 0;
  for (const ExactAnswer& a : answers) {
    if (a.answer != static_cast<double>(a.truth)) {
      if (bad++ == 0) {
        r.detail = "answer " + std::to_string(a.answer) + " != truth " +
                   std::to_string(a.truth);
      }
    }
  }
  r.ok = bad == 0 && !answers.empty();
  if (answers.empty()) r.detail = "no exact answers";
  if (bad > 0) r.detail += " (" + std::to_string(bad) + " wrong)";
  return r;
}

/// Approximate answers: by Chebyshev's inequality an unbiased estimate lies
/// within 3 standard errors of the truth with probability >= 8/9. The check
/// asks for that share minus a slack of three binomial standard deviations
/// of the observed share at n answers, 3 * sqrt((8/9)(1/9)/n), so that a
/// correct estimator fails it with negligible probability.
struct ApproxAnswer {
  double estimate;
  double stderr_estimate;
  int64_t truth;
};
inline double ChebyshevFloor(size_t n) {
  const double p = 8.0 / 9.0;
  return p - 3.0 * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}
inline CheckResult CheckApproxWithinStderr(
    const std::vector<ApproxAnswer>& answers) {
  CheckResult r{"approx_within_3_stderr", true, ""};
  if (answers.empty()) return {r.name, false, "no approximate answers"};
  size_t inside = 0;
  for (const ApproxAnswer& a : answers) {
    const double err = std::fabs(a.estimate - static_cast<double>(a.truth));
    if (a.stderr_estimate > 0.0 && err <= 3.0 * a.stderr_estimate) ++inside;
  }
  const double share = static_cast<double>(inside) / answers.size();
  const double floor = ChebyshevFloor(answers.size());
  r.ok = share >= floor;
  r.detail = std::to_string(inside) + "/" + std::to_string(answers.size()) +
             " within 3 stderr (floor " + std::to_string(floor) + ")";
  return r;
}

/// Each executed private answer was charged exactly the configured
/// per-query epsilon; each cache-served answer was charged nothing.
struct SpentAnswer {
  double spent_epsilon;
  bool served_from_cache;
};
inline CheckResult CheckSpent(const std::vector<SpentAnswer>& answers,
                              double epsilon) {
  CheckResult r{"spent_equals_configured_epsilon", true, ""};
  size_t bad = 0;
  for (const SpentAnswer& a : answers) {
    const double want = a.served_from_cache ? 0.0 : epsilon;
    if (std::fabs(a.spent_epsilon - want) > 1e-12) {
      if (bad++ == 0) {
        r.detail = "spent " + std::to_string(a.spent_epsilon) + " want " +
                   std::to_string(want);
      }
    }
  }
  r.ok = bad == 0 && !answers.empty();
  if (answers.empty()) r.detail = "no answers";
  return r;
}

/// Ledger totals read back from the library equal the benchmark's own
/// tally: spent = charged queries x epsilon, saved = cache-served x epsilon.
inline CheckResult CheckLedgerTotals(double spent, double saved,
                                     uint64_t charged_queries,
                                     uint64_t cache_served, double epsilon) {
  CheckResult r{"ledger_totals_match_tally", true, ""};
  const double want_spent = static_cast<double>(charged_queries) * epsilon;
  const double want_saved = static_cast<double>(cache_served) * epsilon;
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  r.ok = close(spent, want_spent) && close(saved, want_saved);
  r.detail = "spent " + std::to_string(spent) + " want " +
             std::to_string(want_spent) + ", saved " + std::to_string(saved) +
             " want " + std::to_string(want_saved);
  return r;
}

/// Each exact repeat of a purchased query returned the purchased answer
/// bit for bit (the cache serves the released value, never a new draw).
struct RepeatPair {
  double purchased;
  double repeated;
};
inline CheckResult CheckRepeatsVerbatim(const std::vector<RepeatPair>& pairs) {
  CheckResult r{"repeats_return_purchased_answer", true, ""};
  size_t bad = 0;
  for (const RepeatPair& p : pairs) {
    if (std::memcmp(&p.purchased, &p.repeated, sizeof(double)) != 0) ++bad;
  }
  r.ok = bad == 0 && !pairs.empty();
  r.detail = std::to_string(pairs.size() - bad) + "/" +
             std::to_string(pairs.size()) + " repeats verbatim";
  return r;
}

/// Real socket bytes, net of the connect-time handshake and the batch
/// framing overhead, equal the protocol bytes the coordinator charged to
/// its simulated network (summed QueryBreakdown::network_bytes).
inline CheckResult CheckWireBytes(uint64_t moved, uint64_t handshake,
                                  uint64_t batch_overhead, uint64_t charged) {
  CheckResult r{"wire_bytes_equal_charged", true, ""};
  r.ok = moved >= handshake + batch_overhead &&
         moved - handshake - batch_overhead == charged && charged > 0;
  r.detail = "moved " + std::to_string(moved) + " - handshake " +
             std::to_string(handshake) + " - overhead " +
             std::to_string(batch_overhead) + " vs charged " +
             std::to_string(charged);
  return r;
}

/// Every provider server released every session once the run ended.
inline CheckResult CheckSessionsDrained(const std::vector<size_t>& open) {
  CheckResult r{"servers_sessions_drained", true, ""};
  size_t total = 0;
  for (size_t n : open) total += n;
  r.ok = total == 0 && !open.empty();
  r.detail = std::to_string(total) + " sessions open on " +
             std::to_string(open.size()) + " servers";
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
