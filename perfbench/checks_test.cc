// Shows that every correctness check of the benchmark passes on right
// answers and fails on a wrong one.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>
#include <vector>

#include "checks.h"
#include "tracing.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%-64s %s\n", what, cond ? "ok" : "FAIL");
  if (!cond) ++failures;
}

void NoFailedOperations() {
  Expect(CheckNoFailedOperations(1000, 0).ok, "failed ops: every operation answered passes");
  Expect(!CheckNoFailedOperations(1000, 1).ok, "failed ops: one failed operation fails");
  Expect(!CheckNoFailedOperations(0, 0).ok, "failed ops: no operation attempted fails");
}

void ExactAnswers() {
  Expect(CheckExactAnswers({{10, 10}, {7, 7}}).ok, "exact: right answers pass");
  Expect(!CheckExactAnswers({{10, 10}, {8, 7}}).ok, "exact: an answer off by one fails");
  Expect(!CheckExactAnswers({}).ok, "exact: no answers fails");
}

void ApproxAnswers() {
  // 900 answers: all within 1 stderr, then 20% pushed out to 4 stderr.
  std::vector<ApproxAnswer> good;
  for (int i = 0; i < 900; ++i) good.push_back({1000.0 + (i % 3 - 1) * 10.0, 10.0, 1000});
  Expect(CheckApproxWithinStderr(good).ok, "approx: estimates within 1 stderr pass");
  std::vector<ApproxAnswer> bad = good;
  for (int i = 0; i < 180; ++i) bad[i].estimate = 1040.0;
  Expect(!CheckApproxWithinStderr(bad).ok, "approx: 20% of estimates at 4 stderr fail");
  std::vector<ApproxAnswer> biased = good;
  for (ApproxAnswer& a : biased) a.truth = 2000;
  Expect(!CheckApproxWithinStderr(biased).ok, "approx: estimates of the wrong truth fail");
  std::vector<ApproxAnswer> no_stderr = good;
  for (ApproxAnswer& a : no_stderr) a.stderr_estimate = 0.0;
  Expect(!CheckApproxWithinStderr(no_stderr).ok, "approx: answers without a stderr fail");
}

void Spent() {
  Expect(CheckSpent({{1.0, false}, {0.0, true}}, 1.0).ok,
         "spent: eps charged, cache serves free pass");
  Expect(!CheckSpent({{0.5, false}}, 1.0).ok, "spent: a half-charged answer fails");
  Expect(!CheckSpent({{1.0, true}}, 1.0).ok, "spent: a charged cache serve fails");
}

void LedgerTotals() {
  Expect(CheckLedgerTotals(30.0, 12.0, 30, 12, 1.0).ok, "ledger: totals equal to tally pass");
  Expect(!CheckLedgerTotals(31.0, 12.0, 30, 12, 1.0).ok, "ledger: one extra charge fails");
  Expect(!CheckLedgerTotals(30.0, 11.0, 30, 12, 1.0).ok, "ledger: one missing saving fails");
}

void Repeats() {
  Expect(CheckRepeatsVerbatim({{12.5, 12.5}}).ok, "repeats: the purchased answer passes");
  Expect(!CheckRepeatsVerbatim({{12.5, 12.500000000000002}}).ok,
         "repeats: a one-ulp different answer fails");
  Expect(!CheckRepeatsVerbatim({}).ok, "repeats: no repeats fails");
}

void WireBytes() {
  Expect(CheckWireBytes(1100, 60, 40, 1000).ok, "wire: moved - handshake - overhead passes");
  Expect(!CheckWireBytes(1101, 60, 40, 1000).ok, "wire: one unaccounted byte fails");
  Expect(!CheckWireBytes(50, 60, 40, 1000).ok, "wire: fewer bytes than handshake fails");
}

void Sessions() {
  Expect(CheckSessionsDrained({0, 0, 0, 0}).ok, "sessions: all drained passes");
  Expect(!CheckSessionsDrained({0, 1, 0, 0}).ok, "sessions: one leaked session fails");
}

void SelfTime() {
  // Window [0, 100) with children [10, 30) and [20, 50) and [90, 120):
  // covered 40 + 10 = 50, self 50.
  Expect(SelfTimeNs(0, 100, {{10, 30}, {20, 50}, {90, 120}}) == 50,
         "self time: window minus the union of its children");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;  // NOLINT
  NoFailedOperations();
  ExactAnswers();
  ApproxAnswers();
  Spent();
  LedgerTotals();
  Repeats();
  WireBytes();
  Sessions();
  SelfTime();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
