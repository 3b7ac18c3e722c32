#include "tensor/tensor.hpp"

#include <cmath>

namespace tlp::tensor {

Tensor Tensor::random(std::int64_t rows, std::int64_t cols, Rng& rng,
                      float scale) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = (rng.next_float() * 2.0f - 1.0f) * scale;
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  TLP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0.0;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(fa[i]) - fb[i]));
  }
  return worst;
}

bool element_close(float x, float ref, double rtol, double atol) {
  if (!std::isfinite(x) || !std::isfinite(ref))
    return x == ref || (std::isnan(x) && std::isnan(ref));
  return std::abs(static_cast<double>(x) - ref) <=
         atol + rtol * std::abs(static_cast<double>(ref));
}

bool allclose(const Tensor& a, const Tensor& ref, double rtol, double atol) {
  if (a.rows() != ref.rows() || a.cols() != ref.cols()) return false;
  const auto fa = a.flat();
  const auto fr = ref.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (!element_close(fa[i], fr[i], rtol, atol)) return false;
  }
  return true;
}

}  // namespace tlp::tensor
