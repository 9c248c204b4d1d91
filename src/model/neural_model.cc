#include "model/neural_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"
#include "common/timer.h"

namespace mlq {

NeuralCostModel::NeuralCostModel(const Box& space, int64_t memory_limit_bytes)
    : NeuralCostModel(space, memory_limit_bytes, Options()) {}

NeuralCostModel::NeuralCostModel(const Box& space, int64_t memory_limit_bytes,
                                 const Options& options)
    : space_(space), options_(options), inputs_(space.dims()) {
  // Parameters: hidden * inputs + hidden + hidden + 1, at 8 bytes each.
  // Choose the widest hidden layer that fits the budget (at least 2).
  const int64_t max_params = std::max<int64_t>(memory_limit_bytes / 8, 1);
  int hidden = static_cast<int>((max_params - 1) / (inputs_ + 2));
  hidden_ = std::clamp(hidden, 2, 256);

  Rng rng(options.seed);
  // Xavier-style initialization scaled by fan-in.
  const double scale1 = 1.0 / std::sqrt(static_cast<double>(inputs_));
  const double scale2 = 1.0 / std::sqrt(static_cast<double>(hidden_));
  w1_.resize(static_cast<size_t>(hidden_ * inputs_));
  b1_.assign(static_cast<size_t>(hidden_), 0.0);
  w2_.resize(static_cast<size_t>(hidden_));
  for (double& w : w1_) w = rng.Uniform(-scale1, scale1);
  for (double& w : w2_) w = rng.Uniform(-scale2, scale2);
}

void NeuralCostModel::Normalize(const Point& point,
                                std::vector<double>* out) const {
  out->resize(static_cast<size_t>(inputs_));
  for (int d = 0; d < inputs_; ++d) {
    const double extent = space_.Extent(d);
    double unit = extent > 0.0 ? (point[d] - space_.lo()[d]) / extent : 0.0;
    (*out)[static_cast<size_t>(d)] = std::clamp(unit, 0.0, 1.0);
  }
}

double NeuralCostModel::Forward(const std::vector<double>& input,
                                std::vector<double>* hidden_activations) const {
  hidden_activations->resize(static_cast<size_t>(hidden_));
  double output = b2_;
  for (int h = 0; h < hidden_; ++h) {
    double pre = b1_[static_cast<size_t>(h)];
    const double* row = &w1_[static_cast<size_t>(h * inputs_)];
    for (int i = 0; i < inputs_; ++i) pre += row[i] * input[static_cast<size_t>(i)];
    const double activation = std::tanh(pre);
    (*hidden_activations)[static_cast<size_t>(h)] = activation;
    output += w2_[static_cast<size_t>(h)] * activation;
  }
  return output;
}

Prediction NeuralCostModel::PredictDetailed(const Point& point) const {
  Prediction p;
  if (observations_ == 0) return p;
  std::vector<double> input;
  Normalize(point, &input);
  std::vector<double> hidden;
  const double standardized = Forward(input, &hidden);
  const double target_stddev =
      observations_ > 1
          ? std::sqrt(target_m2_ / static_cast<double>(observations_))
          : 1.0;
  // De-standardize; costs are non-negative.
  p.value = std::max(0.0, target_mean_ + standardized * target_stddev);
  p.stddev = observations_ > 1 ? target_stddev : 0.0;
  p.count = observations_;
  p.reliable = true;
  return p;
}

void NeuralCostModel::Observe(const Point& point, double actual_cost) {
  WallTimer timer;
  ++observations_;
  ++breakdown_.insertions;

  // Update the running target statistics (Welford).
  const double delta = actual_cost - target_mean_;
  target_mean_ += delta / static_cast<double>(observations_);
  target_m2_ += delta * (actual_cost - target_mean_);
  const double stddev =
      observations_ > 1
          ? std::sqrt(target_m2_ / static_cast<double>(observations_))
          : 1.0;
  const double target =
      stddev > 0.0 ? (actual_cost - target_mean_) / stddev : 0.0;

  std::vector<double> input;
  Normalize(point, &input);
  std::vector<double> hidden;
  const double rate =
      options_.learning_rate /
      (1.0 + options_.learning_rate_decay * static_cast<double>(observations_));

  for (int step = 0; step < options_.steps_per_observation; ++step) {
    const double output = Forward(input, &hidden);
    const double error = output - target;  // d(loss)/d(output), loss = e^2/2.
    // Output layer.
    for (int h = 0; h < hidden_; ++h) {
      const double gradient = error * hidden[static_cast<size_t>(h)];
      // Backprop into the hidden layer before updating w2.
      const double upstream = error * w2_[static_cast<size_t>(h)];
      const double act = hidden[static_cast<size_t>(h)];
      const double pre_gradient = upstream * (1.0 - act * act);  // tanh'.
      double* row = &w1_[static_cast<size_t>(h * inputs_)];
      for (int i = 0; i < inputs_; ++i) {
        row[i] -= rate * pre_gradient * input[static_cast<size_t>(i)];
      }
      b1_[static_cast<size_t>(h)] -= rate * pre_gradient;
      w2_[static_cast<size_t>(h)] -= rate * gradient;
    }
    b2_ -= rate * error;
  }
  breakdown_.insert_seconds += timer.ElapsedSeconds();
}

int64_t NeuralCostModel::MemoryBytes() const {
  return 8 * static_cast<int64_t>(w1_.size() + b1_.size() + w2_.size() + 1);
}

}  // namespace mlq
