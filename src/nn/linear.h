#pragma once

#include <vector>

#include "autograd/var.h"
#include "common/rng.h"
#include "nn/module.h"

namespace clfd {
namespace nn {

// Affine layer: y = x W + b, with W [in x out] Xavier-initialized and b zero.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng* rng);

  // x: [B x in] -> [B x out].
  ag::Var Forward(const ag::Var& x) const;

  std::vector<ag::Var> Parameters() const override { return {weight_, bias_}; }

  const ag::Var& weight() const { return weight_; }
  const ag::Var& bias() const { return bias_; }
  int in_dim() const { return weight_.rows(); }
  int out_dim() const { return weight_.cols(); }

 private:
  ag::Var weight_;
  ag::Var bias_;
};

}  // namespace nn
}  // namespace clfd

