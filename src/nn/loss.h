// Loss functions. Each yields the scalar loss (mean over contributing
// elements) and the gradient matrix dL/dpred to feed
// Mlp::backward_params_ws(). The masked variant updates only the
// chosen-action entries — the DQN training signal, where the network
// outputs all Q(s,·) but only Q(s,a) has a regression target.
#pragma once

#include <utility>
#include <vector>

#include "nn/matrix.h"

namespace drlnoc::nn {

struct LossResult {
  double loss = 0.0;
  Matrix grad;  ///< same shape as pred
};

/// Mean squared error over all elements.
LossResult mse_loss(const Matrix& pred, const Matrix& target);

/// Per-row masked Huber: row i contributes only column action[i], with
/// target value target[i] and importance weight weight[i]. Returns the
/// weighted mean loss; grad rows are zero outside the selected column.
/// Also reports per-row absolute TD errors (for prioritized replay).
struct MaskedLossResult {
  double loss = 0.0;
  Matrix grad;
  std::vector<double> td_abs;  ///< |pred - target| per row
};

/// Writes into `out`, reusing its grad matrix and td_abs vector: the DQN
/// learn step calls this every gradient step with a persistent workspace,
/// so steady-state calls perform no heap allocation.
void masked_huber_loss_into(MaskedLossResult& out, const Matrix& pred,
                            const std::vector<int>& action,
                            const std::vector<double>& target,
                            const std::vector<double>& weight,
                            double delta = 1.0);

}  // namespace drlnoc::nn
