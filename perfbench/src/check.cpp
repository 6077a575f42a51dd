#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {
namespace {

double value_range(std::span<const float> v) {
  if (v.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return static_cast<double>(*hi) - static_cast<double>(*lo);
}

std::string fmt(const char* f, double a, double b, double c = 0.0) {
  char buf[200];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

double recompute_psnr(std::span<const float> original,
                      std::span<const float> decoded) {
  double sse = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double d =
        static_cast<double>(original[i]) - static_cast<double>(decoded[i]);
    sse += d * d;
  }
  if (sse == 0.0) return std::numeric_limits<double>::infinity();
  const double mse = sse / static_cast<double>(original.size());
  return 20.0 * std::log10(value_range(original)) - 10.0 * std::log10(mse);
}

std::string check_psnr(std::span<const float> original,
                       std::span<const float> decoded, double target_db,
                       double reported_db) {
  if (original.size() != decoded.size())
    return fmt("psnr: %g decoded values for %g originals", decoded.size(),
               original.size());
  const double psnr = recompute_psnr(original, decoded);
  if (!(psnr >= target_db - 1.0))
    return fmt("psnr: %.4f dB is below target %.1f - 1 dB", psnr, target_db);
  if (std::isinf(psnr) && psnr == reported_db) return {};
  if (!(std::fabs(psnr - reported_db) <= 1e-6))
    return fmt("psnr: recomputed %.9f dB, program reported %.9f dB", psnr,
               reported_db);
  return {};
}

std::string check_pointwise(std::span<const float> original,
                            std::span<const float> decoded, double target_db,
                            std::span<const float> reference) {
  if (original.size() != decoded.size())
    return fmt("pointwise: %g decoded values for %g originals", decoded.size(),
               original.size());
  const double eb = std::sqrt(3.0) * std::pow(10.0, -target_db / 20.0) *
                    value_range(original);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double o = original[i];
    const double d = decoded[i];
    double m = std::max(std::fabs(o), std::fabs(d));
    if (!reference.empty()) m = std::max(m, std::fabs(double(reference[i])));
    const float mag = static_cast<float>(m);
    const double ulp =
        static_cast<double>(std::nextafter(mag, INFINITY)) - mag;
    const double slack = reference.empty() ? ulp : 2.0 * ulp;
    if (!(std::fabs(o - d) <= eb + slack))
      return fmt("pointwise: |error| %.6g exceeds the Eq. 8 bound %.6g at "
                 "sample %.0f",
                 std::fabs(o - d), eb, static_cast<double>(i));
  }
  return {};
}

std::string check_same_bytes(std::span<const std::uint8_t> expected,
                             std::span<const std::uint8_t> actual) {
  if (expected.size() != actual.size())
    return fmt("bytes: %g bytes, expected %g", actual.size(), expected.size());
  const auto diff =
      std::mismatch(expected.begin(), expected.end(), actual.begin());
  if (diff.first != expected.end())
    return fmt("bytes: first difference at byte %g of %g",
               diff.first - expected.begin(), expected.size());
  return {};
}

std::string check_same_values(std::span<const float> expected,
                              std::span<const float> actual) {
  if (expected.size() != actual.size())
    return fmt("values: %g values, expected %g", actual.size(),
               expected.size());
  // Bit-for-bit, so a NaN payload or a signed zero also counts.
  const auto bytes = [](std::span<const float> v) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes());
  };
  return check_same_bytes(bytes(expected), bytes(actual));
}

void Checker::expect(const std::string& reason, const std::string& what) {
  if (!reason.empty()) failures_.push_back(what + ": " + reason);
}

void Checker::self_test(std::span<const float> original,
                        std::span<const float> decoded,
                        std::span<const std::uint8_t> archive,
                        double target_db) {
  const double vr = value_range(original);
  const double eb = std::sqrt(3.0) * std::pow(10.0, -target_db / 20.0) * vr;

  std::vector<float> moved(decoded.begin(), decoded.end());
  const std::size_t mid = moved.size() / 2;
  moved[mid] = static_cast<float>(original[mid] + 2.0 * eb);
  if (check_pointwise(original, moved, target_db).empty())
    expect("accepted a sample moved 2x past the bound", "self-test pointwise");

  // A constant offset of vr * 10^(-(P-3)/20) puts the PSNR at P - 3 dB; the
  // reported figure is the true one, so only the target check can object.
  std::vector<float> noisy(original.begin(), original.end());
  const double offset = vr * std::pow(10.0, -(target_db - 3.0) / 20.0);
  for (float& v : noisy) v = static_cast<float>(v + offset);
  if (check_psnr(original, noisy, target_db, recompute_psnr(original, noisy))
          .empty())
    expect("accepted a PSNR 3 dB below target", "self-test psnr");

  std::vector<std::uint8_t> flipped(archive.begin(), archive.end());
  flipped[flipped.size() / 2] ^= 0x10;
  if (check_same_bytes(archive, flipped).empty())
    expect("accepted an archive with one flipped byte", "self-test bytes");
}

}  // namespace perfbench
