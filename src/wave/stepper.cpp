#include "wave/stepper.hpp"

#include <stdexcept>

#include "linalg/blas.hpp"

namespace tsunami {

Rk4Stepper::Rk4Stepper(const AcousticGravityModel& model) : model_(model) {
  const std::size_t n = model_.state_dim();
  k1_.resize(n);
  k2_.resize(n);
  k3_.resize(n);
  k4_.resize(n);
  tmp_.resize(n);
}

void Rk4Stepper::step(std::span<double> y, std::span<const double> b,
                      double dt) {
  const std::size_t n = model_.state_dim();
  if (y.size() != n) throw std::invalid_argument("Rk4Stepper::step: bad size");
  const bool has_b = !b.empty();
  if (has_b && b.size() != n)
    throw std::invalid_argument("Rk4Stepper::step: bad rhs size");

  auto add_b = [&](std::vector<double>& k) {
    if (has_b) axpy(1.0, b, std::span<double>(k));
  };

  // k1 = L y + b
  model_.apply_generator(y, std::span<double>(k1_));
  add_b(k1_);
  // k2 = L (y + dt/2 k1) + b
  std::copy(y.begin(), y.end(), tmp_.begin());
  axpy(0.5 * dt, k1_, std::span<double>(tmp_));
  model_.apply_generator(tmp_, std::span<double>(k2_));
  add_b(k2_);
  // k3 = L (y + dt/2 k2) + b
  std::copy(y.begin(), y.end(), tmp_.begin());
  axpy(0.5 * dt, k2_, std::span<double>(tmp_));
  model_.apply_generator(tmp_, std::span<double>(k3_));
  add_b(k3_);
  // k4 = L (y + dt k3) + b
  std::copy(y.begin(), y.end(), tmp_.begin());
  axpy(dt, k3_, std::span<double>(tmp_));
  model_.apply_generator(tmp_, std::span<double>(k4_));
  add_b(k4_);

  const double w = dt / 6.0;
  axpy(w, k1_, y);
  axpy(2.0 * w, k2_, y);
  axpy(2.0 * w, k3_, y);
  axpy(w, k4_, y);
}

void Rk4Stepper::adjoint_step(std::span<double> w, std::span<double> acc,
                              double dt) {
  const std::size_t n = model_.state_dim();
  if (w.size() != n)
    throw std::invalid_argument("Rk4Stepper::adjoint_step: bad size");
  const bool has_acc = !acc.empty();
  if (has_acc && acc.size() != n)
    throw std::invalid_argument("Rk4Stepper::adjoint_step: bad acc size");

  // Krylov sequence v_i = (Lambda^T)^i w; tmp_ (idle in the adjoint step)
  // is the generator's M^{-1} scratch.
  model_.apply_generator_transpose(w, std::span<double>(k1_), tmp_);
  model_.apply_generator_transpose(k1_, std::span<double>(k2_), tmp_);
  model_.apply_generator_transpose(k2_, std::span<double>(k3_), tmp_);
  model_.apply_generator_transpose(k3_, std::span<double>(k4_), tmp_);

  if (has_acc) {
    // acc += D^T w = h (w + h/2 v1 + h^2/6 v2 + h^3/24 v3).
    axpy(dt, w, acc);
    axpy(dt * dt / 2.0, k1_, acc);
    axpy(dt * dt * dt / 6.0, k2_, acc);
    axpy(dt * dt * dt * dt / 24.0, k3_, acc);
  }
  // w <- P^T w = w + h v1 + h^2/2 v2 + h^3/6 v3 + h^4/24 v4.
  axpy(dt, k1_, w);
  axpy(dt * dt / 2.0, k2_, w);
  axpy(dt * dt * dt / 6.0, k3_, w);
  axpy(dt * dt * dt * dt / 24.0, k4_, w);
}

}  // namespace tsunami
