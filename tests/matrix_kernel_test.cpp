// Kernel-equivalence tests: the register-blocked matmul kernels must be
// BIT-identical to the naive reference loops (the determinism contract's
// summation-order rule) across odd shapes, sparsity patterns, and signed
// zeros. Each sweep reuses one destination across shapes, as the layer
// workspaces do, so stale contents from a previous shape would show.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "nn/matrix.h"
#include "util/rng.h"

namespace drlnoc::nn {
namespace {

// Naive references: exactly the seed implementation's loops.

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(k, j);
      }
    }
  }
  return c;
}

Matrix ref_matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols(), 0.0);
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a.at(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aki * b.at(k, j);
      }
    }
  }
  return c;
}

Matrix ref_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(j, k);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

void expect_bit_identical(const Matrix& got, const Matrix& want,
                          const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.raw()[i]),
              std::bit_cast<std::uint64_t>(want.raw()[i]))
        << what << " element " << i << ": " << got.raw()[i]
        << " != " << want.raw()[i];
  }
}

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng,
                     double zero_prob) {
  Matrix m(r, c);
  for (double& v : m.raw()) {
    if (rng.uniform() < zero_prob) {
      // Mix +0 and -0: the zero-skip must treat both identically.
      v = rng.chance(0.5) ? 0.0 : -0.0;
    } else {
      v = rng.uniform(-2.0, 2.0);
    }
  }
  return m;
}

class KernelEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(KernelEquivalence, MatmulAcrossOddShapes) {
  util::Rng rng(31);
  const double zero_prob = GetParam();
  Matrix c;
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 9, 13, 17, 33};
  for (std::size_t m : dims) {
    for (std::size_t k : dims) {
      for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                            std::size_t{17}, std::size_t{36}}) {
        const Matrix a = random_matrix(m, k, rng, zero_prob);
        const Matrix b = random_matrix(k, n, rng, zero_prob);
        matmul_into(c, a, b);
        expect_bit_identical(c, ref_matmul(a, b), "matmul_into");
      }
    }
  }
}

TEST_P(KernelEquivalence, MatmulTnAcrossOddShapes) {
  util::Rng rng(32);
  const double zero_prob = GetParam();
  Matrix c;
  for (std::size_t rows : {1u, 2u, 5u, 9u, 32u}) {
    for (std::size_t m : {1u, 3u, 7u, 20u, 33u}) {
      for (std::size_t n : {1u, 5u, 8u, 36u}) {
        const Matrix a = random_matrix(rows, m, rng, zero_prob);
        const Matrix b = random_matrix(rows, n, rng, zero_prob);
        matmul_tn_into(c, a, b);
        expect_bit_identical(c, ref_matmul_tn(a, b), "matmul_tn_into");
      }
    }
  }
}

TEST_P(KernelEquivalence, MatmulNtAcrossOddShapes) {
  util::Rng rng(33);
  const double zero_prob = GetParam();
  Matrix c;
  for (std::size_t m : {1u, 2u, 7u, 31u}) {
    for (std::size_t n : {1u, 4u, 9u, 33u}) {
      for (std::size_t k : {1u, 3u, 8u, 21u}) {
        const Matrix a = random_matrix(m, k, rng, zero_prob);
        const Matrix b = random_matrix(n, k, rng, zero_prob);
        matmul_nt_into(c, a, b);
        expect_bit_identical(c, ref_matmul_nt(a, b), "matmul_nt_into");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sparsity, KernelEquivalence,
                         ::testing::Values(0.0, 0.5, 0.97));

TEST(KernelEquivalence, TransposedFormulationOfWeightGradIsBitIdentical) {
  // The adaptive weight-gradient path computes xᵀg either directly or as
  // (gᵀx)ᵀ; both must agree bit for bit even with masked-sparse g (exactly
  // one nonzero per row, like the DQN loss gradient).
  util::Rng rng(34);
  const Matrix x = random_matrix(32, 64, rng, 0.5);
  Matrix g(32, 36, 0.0);
  for (std::size_t r = 0; r < g.rows(); ++r) {
    g.at(r, rng.below(36)) = rng.uniform(-1.0, 1.0);
  }
  Matrix direct, swapped, swapped_t;
  matmul_tn_into(direct, x, g);
  matmul_tn_into(swapped, g, x);
  transpose_into(swapped_t, swapped);
  expect_bit_identical(swapped_t, direct, "weight-grad swap");
}

TEST(KernelEquivalence, IntoVariantsReuseStorage) {
  util::Rng rng(35);
  const Matrix a = random_matrix(9, 13, rng, 0.3);
  const Matrix b = random_matrix(13, 11, rng, 0.3);
  Matrix c;
  matmul_into(c, a, b);
  const double* data_before = c.data();
  matmul_into(c, a, b);  // same shape: must not reallocate
  EXPECT_EQ(c.data(), data_before);
  expect_bit_identical(c, ref_matmul(a, b), "matmul_into reuse");
}

TEST(KernelEquivalence, TransposeRoundTrip) {
  util::Rng rng(36);
  const Matrix a = random_matrix(7, 12, rng, 0.2);
  Matrix t, tt;
  transpose_into(t, a);
  ASSERT_EQ(t.rows(), 12u);
  ASSERT_EQ(t.cols(), 7u);
  transpose_into(tt, t);
  expect_bit_identical(tt, a, "transpose round trip");
}

TEST(ArgmaxRow, MatchesFirstMaxSemantics) {
  Matrix m(2, 4);
  m.set_row(0, {1.0, 3.0, 3.0, 2.0});
  m.set_row(1, {-5.0, -1.0, -2.0, -1.0});
  EXPECT_EQ(argmax_row(m, 0), 1u);  // ties: lowest index wins
  EXPECT_EQ(argmax_row(m, 1), 1u);
  EXPECT_EQ(m.row_data(0)[1], 3.0);
}

}  // namespace
}  // namespace drlnoc::nn
