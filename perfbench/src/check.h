// Output checks computed by the benchmark itself, apart from the program.
//
// Each check returns an empty string when the output passes, else a
// one-line reason. A Checker collects the reasons of one run; the run is
// correct only when none was recorded.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// PSNR of `decoded` against `original`, recomputed in double:
/// 20 log10(max - min) - 10 log10(mse); +inf when the two are equal.
double recompute_psnr(std::span<const float> original,
                      std::span<const float> decoded);

/// The recomputed PSNR must reach target - 1 dB and equal the program's
/// reported PSNR to 1e-6 dB.
std::string check_psnr(std::span<const float> original,
                       std::span<const float> decoded, double target_db,
                       double reported_db);

/// Eq. 8 pointwise bound: every decoded sample lies within
/// sqrt(3) * 10^(-P/20) * (max - min) of the original, plus one f32 rounding
/// of the sample. Valid only for sz-lorenzo with the uniform budget.
///
/// A temporal delta frame is rebuilt as ref + residual in f32 from a
/// residual coded against x - ref, which was itself rounded to f32: two
/// roundings, each at most half an ulp of max(|x|, |ref|, |x~|) doubled, so
/// with the previous frame's reconstruction as `reference` the slack is two
/// ulps of that magnitude. Near a zero crossing |ref| can exceed |x| by
/// orders of magnitude, so the sample's own ulp is not enough there.
std::string check_pointwise(std::span<const float> original,
                            std::span<const float> decoded, double target_db,
                            std::span<const float> reference = {});

std::string check_same_bytes(std::span<const std::uint8_t> expected,
                             std::span<const std::uint8_t> actual);
std::string check_same_values(std::span<const float> expected,
                              std::span<const float> actual);

class Checker {
 public:
  /// Record `reason` (when non-empty) against `what`.
  void expect(const std::string& reason, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Feed the same field through every check with a deliberately wrong
  /// output — one sample moved past the bound, a PSNR 3 dB below target,
  /// one flipped archive byte — and record a failure for each check that
  /// accepts it.
  void self_test(std::span<const float> original,
                 std::span<const float> decoded,
                 std::span<const std::uint8_t> archive, double target_db);

 private:
  std::vector<std::string> failures_;
};

}  // namespace perfbench
