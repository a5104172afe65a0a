// Seeded input generation for the repository benchmark.
//
// Everything the benchmark feeds the library — count tensors, range
// queries, arrival schedules — is made here from the command-line seed,
// with this file's own RNG and distributions and never with
// src/workload/. A change to the library therefore cannot change the
// inputs, and the ground truth the checks compare against is this file's
// own full scan of the generated cells.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/range_query.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace perfbench {

/// xoshiro256** seeded through splitmix64: small, fast, and fixed here so
/// that inputs do not depend on the library's or the standard library's
/// generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& s : s_) s = SplitMix(&seed);
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Exponential with the given rate.
  double Exponential(double rate) { return -std::log(1.0 - Uniform()) / rate; }

  static uint64_t SplitMix(uint64_t* x) {
    uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// Derives an independent stream seed from (seed, tag).
inline uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t x = seed ^ (tag * 0x9e3779b97f4a7c15ull);
  return Rng::SplitMix(&x);
}

enum class Shape { kUniform, kSkewed, kZipf, kNormal };

/// One generated dimension: name, domain {0..domain-1} and marginal shape.
struct DimGen {
  std::string name;
  int64_t domain;
  Shape shape;
  double param;
};

/// Draws values of one dimension by inverse CDF over its marginal.
class Marginal {
 public:
  explicit Marginal(const DimGen& d) {
    std::vector<double> w(static_cast<size_t>(d.domain));
    for (int64_t v = 0; v < d.domain; ++v) {
      const double x = static_cast<double>(v);
      switch (d.shape) {
        case Shape::kUniform: w[v] = 1.0; break;
        case Shape::kSkewed: w[v] = std::pow(0.6, x); break;
        case Shape::kZipf: w[v] = 1.0 / std::pow(x + 1.0, d.param); break;
        case Shape::kNormal: {
          const double mu = 0.45 * static_cast<double>(d.domain);
          const double sd = d.param * static_cast<double>(d.domain) / 3.0;
          w[v] = std::exp(-0.5 * ((x - mu) / sd) * ((x - mu) / sd)) + 1e-4;
          break;
        }
      }
    }
    cdf_.resize(w.size());
    double acc = 0.0;
    for (size_t i = 0; i < w.size(); ++i) cdf_[i] = (acc += w[i]);
    for (double& c : cdf_) c /= acc;
  }
  int64_t Draw(Rng* rng) const {
    const double u = rng->Uniform();
    return static_cast<int64_t>(
        std::min<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                             cdf_.begin(),
                         cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// The Amazon-review-like dimensions (rating, price bucket, day, two
/// random synthetic dimensions): the paper's Fig. 7 dataset shape.
inline std::vector<DimGen> AmazonLike() {
  return {{"rating", 5, Shape::kSkewed, 0},
          {"price_bucket", 200, Shape::kZipf, 1.4},
          {"day", 365, Shape::kNormal, 0.7},
          {"synth_a", 100, Shape::kUniform, 0},
          {"synth_b", 100, Shape::kUniform, 0}};
}

/// The nine Adult-census-like dimensions the paper's Adult tensor keeps.
inline std::vector<DimGen> AdultLike() {
  return {{"age", 74, Shape::kNormal, 0.3},
          {"workclass", 9, Shape::kSkewed, 0},
          {"education_num", 16, Shape::kNormal, 0.6},
          {"marital_status", 7, Shape::kSkewed, 0},
          {"occupation", 15, Shape::kUniform, 0},
          {"race", 5, Shape::kZipf, 1.6},
          {"capital_gain", 120, Shape::kZipf, 1.8},
          {"hours_per_week", 99, Shape::kNormal, 0.4},
          {"income", 2, Shape::kSkewed, 0}};
}

/// A count tensor in column form: one cell per distinct combination of
/// dimension values, `measure` = how many raw records fell into it.
/// The benchmark's own copy of the data, used for ground truth.
struct Tensor {
  std::vector<DimGen> dims;
  std::vector<std::vector<uint16_t>> cols;
  std::vector<int64_t> measure;

  size_t num_cells() const { return measure.size(); }
  int64_t total_measure() const {
    int64_t t = 0;
    for (int64_t m : measure) t += m;
    return t;
  }
  fedaqp::Schema schema() const {
    std::vector<fedaqp::Dimension> out;
    for (const DimGen& d : dims) out.push_back({d.name, d.domain});
    return fedaqp::Schema(std::move(out));
  }
};

/// Draws `raw_rows` records with independent marginals, merges equal
/// combinations into cells, and returns the cells in a seeded random order
/// (the physical order a hash aggregation would leave behind).
inline Tensor MakeTensor(const std::vector<DimGen>& dims, size_t raw_rows,
                         uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  std::vector<Marginal> marginals;
  for (const DimGen& d : dims) marginals.emplace_back(d);
  std::unordered_map<uint64_t, int64_t> cells;
  cells.reserve(raw_rows);
  for (size_t r = 0; r < raw_rows; ++r) {
    uint64_t key = 0;
    for (size_t d = 0; d < dims.size(); ++d) {
      key = key * static_cast<uint64_t>(dims[d].domain) +
            static_cast<uint64_t>(marginals[d].Draw(&rng));
    }
    ++cells[key];
  }
  std::vector<std::pair<uint64_t, int64_t>> sorted(cells.begin(), cells.end());
  cells = {};
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = sorted.size(); i > 1; --i) {
    std::swap(sorted[i - 1], sorted[rng.Below(i)]);
  }
  Tensor t;
  t.dims = dims;
  t.cols.assign(dims.size(), std::vector<uint16_t>(sorted.size()));
  t.measure.resize(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    uint64_t key = sorted[i].first;
    for (size_t d = dims.size(); d-- > 0;) {
      t.cols[d][i] = static_cast<uint16_t>(key % dims[d].domain);
      key /= static_cast<uint64_t>(dims[d].domain);
    }
    t.measure[i] = sorted[i].second;
  }
  return t;
}

/// Round-robin horizontal partition of the cells into `parts` library
/// tables (the providers' private data).
inline std::vector<fedaqp::Table> Partition(const Tensor& t, size_t parts) {
  std::vector<fedaqp::Table> out(parts, fedaqp::Table(t.schema()));
  for (size_t i = 0; i < t.num_cells(); ++i) {
    fedaqp::Row row;
    row.values.resize(t.dims.size());
    for (size_t d = 0; d < t.dims.size(); ++d) row.values[d] = t.cols[d][i];
    row.measure = t.measure[i];
    (void)out[i % parts].Append(std::move(row));
  }
  return out;
}

/// Ground truth by full scan of the benchmark's own cells: COUNT counts
/// matching cells, SUM sums their measures. Evaluates all `queries` in one
/// pass over cache-sized blocks of cells.
inline std::vector<int64_t> Truths(const Tensor& t,
                                   const std::vector<fedaqp::RangeQuery>& queries) {
  constexpr size_t kBlock = 4096;
  std::vector<int64_t> out(queries.size(), 0);
  uint8_t keep[kBlock];
  for (size_t base = 0; base < t.num_cells(); base += kBlock) {
    const size_t n = std::min(kBlock, t.num_cells() - base);
    const int64_t* measure = t.measure.data() + base;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::fill(keep, keep + n, uint8_t{1});
      for (const fedaqp::DimRange& r : queries[qi].ranges()) {
        const uint16_t* col = t.cols[r.dim_index].data() + base;
        const uint16_t lo = static_cast<uint16_t>(r.lo);
        const uint16_t width = static_cast<uint16_t>(r.hi - r.lo);
        for (size_t i = 0; i < n; ++i) {
          keep[i] &= static_cast<uint8_t>(static_cast<uint16_t>(col[i] - lo) <= width);
        }
      }
      int64_t acc = 0;
      if (queries[qi].aggregation() == fedaqp::Aggregation::kCount) {
        for (size_t i = 0; i < n; ++i) acc += keep[i];
      } else {
        for (size_t i = 0; i < n; ++i) acc += keep[i] * measure[i];
      }
      out[qi] += acc;
    }
  }
  return out;
}

/// A query with its ground truth.
struct Query {
  fedaqp::RangeQuery query;
  int64_t truth = 0;
};

/// Random analytical range over `num_dims` distinct dimensions, each
/// interval covering 30-80% of its domain — the broad queries the paper's
/// approximation targets.
inline fedaqp::RangeQuery RandomRange(const Tensor& t, size_t num_dims,
                                      fedaqp::Aggregation agg, Rng* rng) {
  std::vector<size_t> order(t.dims.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Below(i)]);
  }
  std::vector<fedaqp::DimRange> ranges;
  for (size_t k = 0; k < num_dims; ++k) {
    const int64_t dom = t.dims[order[k]].domain;
    const double frac = 0.3 + 0.5 * rng->Uniform();
    const int64_t width =
        std::max<int64_t>(1, static_cast<int64_t>(frac * static_cast<double>(dom)));
    const int64_t lo = static_cast<int64_t>(rng->Below(dom - width + 1));
    ranges.push_back({order[k], lo, lo + width - 1});
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const fedaqp::DimRange& a, const fedaqp::DimRange& b) {
              return a.dim_index < b.dim_index;
            });
  return fedaqp::RangeQuery(agg, std::move(ranges));
}

/// `count` distinct queries cycling COUNT/SUM over 2..max_dims constrained
/// dimensions; a query is kept only when its true answer is at least 1% of
/// the federation's total (so the answer is far above the DP noise floor,
/// as on the paper's full-size tables).
inline std::vector<Query> MakeQueries(const Tensor& t, size_t count,
                                      size_t max_dims, uint64_t seed) {
  Rng rng(SubSeed(seed, 2));
  const double total_count = static_cast<double>(t.num_cells());
  const double total_sum = static_cast<double>(t.total_measure());
  const fedaqp::Schema schema = t.schema();
  // Slot i gets 2 + (i/2) % (max_dims-1) dimensions and alternates COUNT
  // and SUM. Every pass draws one candidate per open slot and scans them
  // all at once; a rejected slot draws again in the next pass.
  std::vector<Query> out(count);
  std::vector<size_t> open(count);
  for (size_t i = 0; i < count; ++i) open[i] = i;
  std::unordered_map<std::string, bool> seen;
  while (!open.empty()) {
    std::vector<fedaqp::RangeQuery> batch;
    for (size_t i : open) {
      const size_t dims = 2 + (i / 2) % (max_dims - 1);
      batch.push_back(RandomRange(
          t, dims, i % 2 == 0 ? fedaqp::Aggregation::kCount : fedaqp::Aggregation::kSum,
          &rng));
    }
    const std::vector<int64_t> truths = Truths(t, batch);
    std::vector<size_t> still_open;
    for (size_t k = 0; k < open.size(); ++k) {
      const double total =
          batch[k].aggregation() == fedaqp::Aggregation::kCount ? total_count : total_sum;
      bool& dup = seen[batch[k].ToString(schema)];
      if (static_cast<double>(truths[k]) >= 0.01 * total && !dup) {
        dup = true;
        out[open[k]] = {batch[k], truths[k]};
      } else {
        still_open.push_back(open[k]);
      }
    }
    open.swap(still_open);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
