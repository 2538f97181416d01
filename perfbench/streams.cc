#include "streams.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Point-mix ladders in popularity order: the most requested (tau, k) pairs
// come first, so Zipf rank 0 is the hottest key.
constexpr uint32_t kPointTaus[] = {2, 1, 3, 4, 5, 6, 8, 10};
constexpr uint32_t kPointKs[] = {10, 1, 20, 50, 5, 100};
constexpr uint32_t kDeepMaxTau = 12;

}  // namespace

Zipf::Zipf(size_t n) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(esd::util::Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

PointMix::PointMix(uint64_t seed)
    : rng_(seed),
      tau_zipf_(std::size(kPointTaus)),
      k_zipf_(std::size(kPointKs)) {}

Request PointMix::Next() {
  Request r;
  r.tau = kPointTaus[tau_zipf_.Sample(rng_)];
  r.k = kPointKs[k_zipf_.Sample(rng_)];
  return r;
}

DeepMix::DeepMix(uint64_t seed) : rng_(seed) {}

Request DeepMix::Next() {
  Request r;
  r.tau = 1 + static_cast<uint32_t>(rng_.NextBounded(kDeepMaxTau));
  const double lo = std::log(static_cast<double>(kDeepMinK));
  const double hi = std::log(static_cast<double>(kDeepMaxK));
  const double k = std::exp(lo + (hi - lo) * rng_.NextDouble());
  r.k = std::clamp(static_cast<uint32_t>(k), kDeepMinK, kDeepMaxK);
  return r;
}

ChurnStream::ChurnStream(const esd::graph::Graph& g, uint64_t seed,
                         size_t lag)
    : rng_(seed), lag_(lag), present_(g.Edges()) {}

esd::live::LiveUpdate ChurnStream::Next() {
  esd::live::LiveUpdate up;
  if (last_was_delete_ && absent_.size() > lag_) {
    const esd::graph::Edge e = absent_.front();
    absent_.pop_front();
    present_.push_back(e);
    up.kind = esd::live::UpdateKind::kInsert;
    up.u = e.u;
    up.v = e.v;
    last_was_delete_ = false;
    return up;
  }
  const size_t i = rng_.NextBounded(present_.size());
  const esd::graph::Edge e = present_[i];
  present_[i] = present_.back();
  present_.pop_back();
  absent_.push_back(e);
  up.kind = esd::live::UpdateKind::kDelete;
  up.u = e.u;
  up.v = e.v;
  last_was_delete_ = true;
  return up;
}

void ChurnStream::NextBatch(size_t n,
                            std::vector<esd::live::LiveUpdate>* out) {
  out->clear();
  for (size_t i = 0; i < n; ++i) out->push_back(Next());
}

}  // namespace perfbench
