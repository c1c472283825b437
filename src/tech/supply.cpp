#include "tech/supply.hpp"

#include <cmath>
#include <stdexcept>

namespace razorbus::tech {

SupplyGrid::SupplyGrid(double vmin, double vmax, double step)
    : vmin_(vmin), vmax_(vmax), step_(step) {
  // Negated compares so a NaN in any field is rejected too.
  if (!(step > 0.0) || !(vmin <= vmax))
    throw std::invalid_argument("SupplyGrid: bad range/step");
  count_ = static_cast<std::size_t>(std::floor((vmax - vmin) / step + 1e-9)) + 1;
  vmax_ = vmin_ + step_ * static_cast<double>(count_ - 1);
}

double SupplyGrid::voltage(std::size_t index) const {
  if (index >= count_) throw std::out_of_range("SupplyGrid::voltage");
  return vmin_ + step_ * static_cast<double>(index);
}

std::size_t SupplyGrid::index_of(double v) const {
  if (v <= vmin_) return 0;
  if (v >= vmax_) return count_ - 1;
  const double raw = (v - vmin_) / step_;
  auto idx = static_cast<std::size_t>(std::lround(raw));
  if (idx >= count_) idx = count_ - 1;
  return idx;
}

double SupplyGrid::step_up(double v) const {
  const std::size_t idx = index_of(v);
  return idx + 1 < count_ ? voltage(idx + 1) : vmax_;
}

double SupplyGrid::step_down(double v) const {
  const std::size_t idx = index_of(v);
  return idx > 0 ? voltage(idx - 1) : vmin_;
}

std::vector<double> SupplyGrid::voltages() const {
  std::vector<double> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) out.push_back(voltage(i));
  return out;
}

}  // namespace razorbus::tech
