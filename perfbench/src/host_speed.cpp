#include "host_speed.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 20;
}

constexpr std::uint32_t kChaseSlots = 1u << 21;
constexpr int kHeapSize = 4096;
constexpr int kHeapOps = 900000;
constexpr int kChaseSteps = 100000;
constexpr int kHashSteps = 3000000;

}  // namespace

HostSpeed::HostSpeed() : next_(kChaseSlots) {
  std::vector<std::uint32_t> perm(kChaseSlots);
  std::iota(perm.begin(), perm.end(), 0u);
  std::uint64_t s = 12345;
  for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) std::swap(perm[i], perm[lcg(s) % (i + 1)]);
  for (std::uint32_t i = 0; i < kChaseSlots; ++i) next_[perm[i]] = perm[(i + 1) % kChaseSlots];
}

std::uint64_t HostSpeed::work() const {
  // Event-queue churn: pop the earliest key, push a later one.
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeapSize);
  std::uint64_t s = 99, acc = 0;
  for (int i = 0; i < kHeapSize; ++i) {
    heap.push_back(lcg(s));
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (int i = 0; i < kHeapOps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    acc += heap.back();
    heap.back() = acc + (lcg(s) >> 24);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  std::uint32_t p = static_cast<std::uint32_t>(acc % kChaseSlots);
  for (int i = 0; i < kChaseSteps; ++i) p = next_[p];
  std::uint64_t h = 1469598103934665603ull ^ p;
  for (int i = 0; i < kHashSteps; ++i) {
    h ^= static_cast<std::uint64_t>(i);
    h *= 1099511628211ull;
  }
  return h;
}

double HostSpeed::slice(int threads) {
  const double t0 = now_s();
  std::vector<std::uint64_t> out(static_cast<std::size_t>(std::max(1, threads)));
  {
    std::vector<std::jthread> extra;
    for (std::size_t i = 1; i < out.size(); ++i) extra.emplace_back([this, &out, i] { out[i] = work(); });
    out[0] = work();
  }
  const double secs = now_s() - t0;
  for (std::uint64_t h : out) sink_ += h;
  slices_.push_back(secs);
  return secs;
}

double HostSpeed::factor(const std::vector<double>& secs) {
  if (secs.empty()) return 1.0;
  const double mean = std::accumulate(secs.begin(), secs.end(), 0.0) / static_cast<double>(secs.size());
  return kReferenceSliceS / mean;
}

}  // namespace perfbench
