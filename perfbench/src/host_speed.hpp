#pragma once
// Host-speed calibration.
//
// This benchmark runs on shared hosts whose speed drifts by tens of
// percent over minutes: the same 4x15 messaging pass took 2.6 s to 4.3 s
// within three minutes on a 4-vCPU VM. The drift is common to all code
// in the process: over 20 s windows, the job set's median pass time
// correlated 0.8-0.9 with a fixed calibration slice's. So every
// end-to-end time is scaled by the host speed measured in the same run,
// with slices of fixed work interleaved with the work under test:
//
//   reported = measured * kReferenceSliceS / measured_slice
//
// The slice is frozen benchmark code and uses nothing from src/, so a
// change to the simulator moves the measured time and not the slice. It
// mixes the simulator's three kinds of host work: a binary-heap event
// queue, a pointer chase over 8 MiB (data-structure latency) and integer
// hashing. The chase buffer is allocated once; the heap is a fixed 32 KiB.

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Nominal slice time: the reported times are in seconds of a host on
  /// which one slice takes this long.
  static constexpr double kReferenceSliceS = 0.05;

  HostSpeed();

  /// Runs one slice on each of `threads` threads at once and returns
  /// its wall seconds; also kept in slices(). A multi-threaded slice
  /// calibrates work spread over a worker pool.
  double slice(int threads = 1);

  /// kReferenceSliceS over the mean of `secs`: above 1 on a fast host.
  static double factor(const std::vector<double>& secs);

  const std::vector<double>& slices() const { return slices_; }

 private:
  std::uint64_t work() const;

  std::vector<std::uint32_t> next_;  ///< one random cycle over 2^21 slots
  std::vector<double> slices_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
