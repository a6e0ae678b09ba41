// AVX2 kernels. Compiled with -mavx2 -ffp-contract=off (src/CMakeLists.txt)
// and only ever invoked after a cpuid check (kernels.cpp), so the binary
// stays runnable on pre-AVX2 x86.
//
// Exactness discipline (DESIGN.md §16): every elementwise kernel performs
// the same rounded multiply followed by the same rounded add as the scalar
// reference — _mm256_mul_ps + _mm256_add_ps, never an FMA — and vector
// tails fall back to the identical scalar expression. Only the double
// reductions (sum_squares, matmul_transposed's dots) use multiple
// accumulators and therefore differ from the scalar path, by design.
#include <cstdint>

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml::kernels {

namespace {

void a_add(float* y, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) y[i] += x[i];
}

void a_sub(float* y, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) y[i] -= x[i];
}

void a_scale(float* y, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vs));
  for (; i < n; ++i) y[i] *= s;
}

void a_axpy(float* y, const float* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_mul_ps(vs, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), t));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void a_scale_add(float* y, float s, const float* x, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_mul_ps(_mm256_loadu_ps(y + i), vs);
    _mm256_storeu_ps(y + i, _mm256_add_ps(t, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = y[i] * s + x[i];
}

void a_sgd_step(float* value, const float* grad, float lr, float wd, std::size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vwd = _mm256_set1_ps(wd);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(value + i);
    __m256 g = _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(vwd, v));
    _mm256_storeu_ps(value + i, _mm256_sub_ps(v, _mm256_mul_ps(vlr, g)));
  }
  for (; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    value[i] -= lr * g;
  }
}

void a_sgd_momentum_step(float* value, const float* grad, float* vel, float lr,
                         float momentum, float wd, std::size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vm = _mm256_set1_ps(momentum);
  const __m256 vwd = _mm256_set1_ps(wd);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(value + i);
    __m256 g = _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(vwd, v));
    __m256 vv = _mm256_add_ps(_mm256_mul_ps(vm, _mm256_loadu_ps(vel + i)), g);
    _mm256_storeu_ps(vel + i, vv);
    _mm256_storeu_ps(value + i, _mm256_sub_ps(v, _mm256_mul_ps(vlr, vv)));
  }
  for (; i < n; ++i) {
    float g = grad[i] + wd * value[i];
    vel[i] = momentum * vel[i] + g;
    value[i] -= lr * vel[i];
  }
}

void a_server_momentum_step(float* params, float* vel, const float* delta, float beta,
                            float lr, std::size_t n) {
  const __m256 vbeta = _mm256_set1_ps(beta);
  const __m256 vlr = _mm256_set1_ps(lr);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_add_ps(_mm256_mul_ps(vbeta, _mm256_loadu_ps(vel + i)),
                             _mm256_loadu_ps(delta + i));
    _mm256_storeu_ps(vel + i, v);
    _mm256_storeu_ps(params + i,
                     _mm256_add_ps(_mm256_loadu_ps(params + i), _mm256_mul_ps(vlr, v)));
  }
  for (; i < n; ++i) {
    vel[i] = beta * vel[i] + delta[i];
    params[i] += lr * vel[i];
  }
}

void a_weighted_accum(double* sum, const float* d, double w, std::size_t n) {
  const __m256d vw = _mm256_set1_pd(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vd = _mm256_cvtps_pd(_mm_loadu_ps(d + i));
    _mm256_storeu_pd(sum + i,
                     _mm256_add_pd(_mm256_loadu_pd(sum + i), _mm256_mul_pd(vw, vd)));
  }
  for (; i < n; ++i) sum[i] += w * static_cast<double>(d[i]);
}

void a_mean_from_sums(float* out, const double* sum, double inv, std::size_t n) {
  const __m256d vinv = _mm256_set1_pd(inv);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_loadu_pd(sum + i), vinv)));
  for (; i < n; ++i) out[i] = static_cast<float>(sum[i] * inv);
}

float a_max_abs(const float* x, std::size_t n) {
  // |x| via sign-bit clear; max is order-independent over finite floats, so
  // the lane-wise fold matches the scalar sweep exactly.
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    vmax = _mm256_max_ps(vmax, _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float m = 0.0f;
  for (float lane : lanes) m = std::max(m, lane);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

// --- matmul family ---------------------------------------------------------
//
// The model's tiles are small (16x16x32, 16x32x16, 16x16x1 at batch 16), so
// the kernels below dispatch on shape. For n in {8, 16, 24, 32} an output
// block of R rows x n/8 vectors stays in registers across the whole k loop;
// R independent rows give the add chains enough ILP. The a == 0 skip is a
// select (blendv back to the unchanged accumulator), never a branch:
// post-ReLU activations are about half exact zeros at random positions, and
// a branch on them mispredicts about every other k. Per output element the
// k order and the one-rounded-mul-then-one-rounded-add step are those of the
// scalar loop, so every result stays bit-identical to it.

/// Per-lane "a != 0" (true for NaN, false for +-0): the lanes that take a
/// rank-1 update, exactly the scalar loop's `if (av == 0.0f) continue`.
inline __m256 nonzero_mask(__m256 va) {
  return _mm256_cmp_ps(va, _mm256_setzero_ps(), _CMP_NEQ_UQ);
}

/// out[R rows, NV*8 cols] += A * b for one block of rows, where row r's k-th
/// a value is a[r * a_row + kk * a_k] (matmul: a_row = k, a_k = 1;
/// transposed_matmul: a_row = 1, a_k = m). The block is loaded once, updated
/// k times in registers, stored once.
template <int R, int NV>
inline void update_block(const float* a, std::size_t a_row, std::size_t a_k, const float* b,
                         float* out, std::size_t k, std::size_t n) {
  __m256 acc[R][NV];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_loadu_ps(out + r * n + v * 8);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* b_row = b + kk * n;
    __m256 vb[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) vb[v] = _mm256_loadu_ps(b_row + v * 8);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_broadcast_ss(a + r * a_row + kk * a_k);
      const __m256 keep = nonzero_mask(va);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        const __m256 t = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, vb[v]));
        acc[r][v] = _mm256_blendv_ps(acc[r][v], t, keep);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(out + r * n + v * 8, acc[r][v]);
}

/// All m rows through update_block, R at a time, with single rows for the
/// tail. R = 8 / NV (2 for NV = 3) keeps 6-8 independent accumulator chains
/// in flight.
template <int NV>
void update_rows(const float* a, std::size_t a_row, std::size_t a_k, const float* b,
                 float* out, std::size_t m, std::size_t k, std::size_t n) {
  constexpr int R = 8 / NV;
  std::size_t i = 0;
  for (; i + R <= m; i += R)
    update_block<R, NV>(a + i * a_row, a_row, a_k, b, out + i * n, k, n);
  for (; i < m; ++i) update_block<1, NV>(a + i * a_row, a_row, a_k, b, out + i * n, k, n);
}

/// The register-blocked path for n in {8, 16, 24, 32}; false for other n.
bool update_rows_small_n(const float* a, std::size_t a_row, std::size_t a_k, const float* b,
                         float* out, std::size_t m, std::size_t k, std::size_t n) {
  switch (n) {
    case 8: update_rows<1>(a, a_row, a_k, b, out, m, k, n); return true;
    case 16: update_rows<2>(a, a_row, a_k, b, out, m, k, n); return true;
    case 24: update_rows<3>(a, a_row, a_k, b, out, m, k, n); return true;
    case 32: update_rows<4>(a, a_row, a_k, b, out, m, k, n); return true;
    default: return false;
  }
}

/// One scalar step o += av * bv unless av == 0, as a select.
inline __m128 select_step(__m128 o, __m128 va, __m128 vb) {
  const __m128 t = _mm_add_ss(o, _mm_mul_ss(va, vb));
  return _mm_blendv_ps(o, t, _mm_cmpneq_ss(va, _mm_setzero_ps()));
}

/// matmul with n == 1 for R rows: one scalar chain per row, the R chains
/// interleaved, no branch.
template <int R>
inline void matmul_n1_rows(const float* a, const float* b, float* out, std::size_t k) {
  __m128 o[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) o[r] = _mm_load_ss(out + r);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m128 vb = _mm_load_ss(b + kk);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) o[r] = select_step(o[r], _mm_load_ss(a + r * k + kk), vb);
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) _mm_store_ss(out + r, o[r]);
}

/// matmul with n == 1 (the model's head).
void matmul_n1(const float* a, const float* b, float* out, std::size_t m, std::size_t k) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) matmul_n1_rows<8>(a + i * k, b, out + i, k);
  for (; i < m; ++i) matmul_n1_rows<1>(a + i * k, b, out + i, k);
}

/// transposed_matmul with n == 1 (the head's dW): out[i] for eight i at a
/// time is one vector, and a's row kk is contiguous in i.
void transposed_matmul_n1(const float* a, const float* b, float* out, std::size_t k,
                          std::size_t m) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    __m256 o = _mm256_loadu_ps(out + i);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const __m256 va = _mm256_loadu_ps(a + kk * m + i);
      const __m256 t = _mm256_add_ps(o, _mm256_mul_ps(va, _mm256_broadcast_ss(b + kk)));
      o = _mm256_blendv_ps(o, t, nonzero_mask(va));
    }
    _mm256_storeu_ps(out + i, o);
  }
  for (; i < m; ++i) {
    __m128 o = _mm_load_ss(out + i);
    for (std::size_t kk = 0; kk < k; ++kk)
      o = select_step(o, _mm_load_ss(a + kk * m + i), _mm_load_ss(b + kk));
    _mm_store_ss(out + i, o);
  }
}

void a_matmul(const float* a, const float* b, float* out, std::size_t m, std::size_t k,
              std::size_t n) {
  if (n == 1) return matmul_n1(a, b, out, m, k);
  if (update_rows_small_n(a, k, 1, b, out, m, k, n)) return;
  // Wide n: ikj with the k loop register-blocked by 2 (one out row
  // load/store per k-pair) and tiled so a row of b stays L1-hot across the
  // block. The a == 0 skip is a branch here; it skips a whole row update,
  // which pays for itself once n is wide.
  constexpr std::size_t kTile = 512;
  for (std::size_t k0 = 0; k0 < k; k0 += kTile) {
    const std::size_t k1 = std::min(k, k0 + kTile);
    for (std::size_t i = 0; i < m; ++i) {
      const float* a_row = a + i * k;
      float* o_row = out + i * n;
      std::size_t kk = k0;
      for (; kk + 2 <= k1; kk += 2) {
        const float a0 = a_row[kk];
        const float a1 = a_row[kk + 1];
        const float* b0 = b + kk * n;
        const float* b1 = b0 + n;
        if (a0 != 0.0f && a1 != 0.0f) {
          const __m256 va0 = _mm256_set1_ps(a0);
          const __m256 va1 = _mm256_set1_ps(a1);
          std::size_t j = 0;
          for (; j + 8 <= n; j += 8) {
            __m256 o = _mm256_loadu_ps(o_row + j);
            o = _mm256_add_ps(o, _mm256_mul_ps(va0, _mm256_loadu_ps(b0 + j)));
            o = _mm256_add_ps(o, _mm256_mul_ps(va1, _mm256_loadu_ps(b1 + j)));
            _mm256_storeu_ps(o_row + j, o);
          }
          for (; j < n; ++j) {
            float o = o_row[j] + a0 * b0[j];
            o_row[j] = o + a1 * b1[j];
          }
        } else if (a0 != 0.0f) {
          a_axpy(o_row, b0, a0, n);
        } else if (a1 != 0.0f) {
          a_axpy(o_row, b1, a1, n);
        }
      }
      if (kk < k1) {
        const float av = a_row[kk];
        if (av != 0.0f) a_axpy(o_row, b + kk * n, av, n);
      }
    }
  }
}

void a_transposed_matmul(const float* a, const float* b, float* out, std::size_t k,
                         std::size_t m, std::size_t n) {
  if (n == 1) return transposed_matmul_n1(a, b, out, k, m);
  if (update_rows_small_n(a, 1, m, b, out, m, k, n)) return;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* a_row = a + kk * m;
    const float* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      if (av == 0.0f) continue;
      a_axpy(out + i * n, b_row, av, n);
    }
  }
}

double hsum_pd(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// One dot product a . b in the AVX2 lane order: two 4-lane double
/// accumulators over the 8-wide chunks, lanes summed ((l0 + l1) + l2) + l3,
/// then the k % 8 tail added in sequence.
float dot1(const float* a, const float* b, std::size_t k) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 va = _mm256_loadu_ps(a + kk);
    const __m256 vb = _mm256_loadu_ps(b + kk);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                                             _mm256_cvtps_pd(_mm256_castps256_ps128(vb))));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                                             _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1))));
  }
  double acc = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; kk < k; ++kk) acc += static_cast<double>(a[kk]) * b[kk];
  return static_cast<float>(acc);
}

/// Four dot products a . b_c (c = 0..3) over operands already widened to
/// double (b_c at b + c * k), in dot1's lane order for every column: the
/// chunk accumulators of all four columns are summed at once, a 4x4
/// transpose lining up lane l of each. With k < 8 there is no chunk, and
/// each column is the sequential loop from 0.0. Stores four floats at out.
void dot4(const double* a, const double* b, std::size_t k, float* out) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t kk = 0;
  if (k >= 8) {
    __m256d lo[4], hi[4];
#pragma GCC unroll 4
    for (int c = 0; c < 4; ++c) lo[c] = hi[c] = _mm256_setzero_pd();
    for (; kk + 8 <= k; kk += 8) {
      const __m256d a_lo = _mm256_load_pd(a + kk);
      const __m256d a_hi = _mm256_load_pd(a + kk + 4);
#pragma GCC unroll 4
      for (int c = 0; c < 4; ++c) {
        lo[c] = _mm256_add_pd(lo[c], _mm256_mul_pd(a_lo, _mm256_loadu_pd(b + c * k + kk)));
        hi[c] = _mm256_add_pd(hi[c], _mm256_mul_pd(a_hi, _mm256_loadu_pd(b + c * k + kk + 4)));
      }
    }
    const __m256d s0 = _mm256_add_pd(lo[0], hi[0]);
    const __m256d s1 = _mm256_add_pd(lo[1], hi[1]);
    const __m256d s2 = _mm256_add_pd(lo[2], hi[2]);
    const __m256d s3 = _mm256_add_pd(lo[3], hi[3]);
    const __m256d u0 = _mm256_unpacklo_pd(s0, s1);  // s0[0] s1[0] s0[2] s1[2]
    const __m256d u1 = _mm256_unpackhi_pd(s0, s1);  // s0[1] s1[1] s0[3] s1[3]
    const __m256d u2 = _mm256_unpacklo_pd(s2, s3);  // s2[0] s3[0] s2[2] s3[2]
    const __m256d u3 = _mm256_unpackhi_pd(s2, s3);  // s2[1] s3[1] s2[3] s3[3]
    const __m256d l0 = _mm256_permute2f128_pd(u0, u2, 0x20);  // lane 0 of s0..s3
    const __m256d l1 = _mm256_permute2f128_pd(u1, u3, 0x20);  // lane 1
    const __m256d l2 = _mm256_permute2f128_pd(u0, u2, 0x31);  // lane 2
    const __m256d l3 = _mm256_permute2f128_pd(u1, u3, 0x31);  // lane 3
    acc = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(l0, l1), l2), l3);
  }
  for (; kk < k; ++kk) {
    const __m256d vb = _mm256_set_pd(b[3 * k + kk], b[2 * k + kk], b[k + kk], b[kk]);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a[kk]), vb));
  }
  _mm_storeu_ps(out, _mm256_cvtpd_ps(acc));
}

/// dst[i] = double(src[i]); exact.
void widen(const float* src, double* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_store_pd(dst + i, _mm256_cvtps_pd(_mm_loadu_ps(src + i)));
  for (; i < n; ++i) dst[i] = src[i];
}

void a_matmul_transposed(const float* a, const float* b, float* out, std::size_t m,
                         std::size_t k, std::size_t n) {
  // Widen b to double once (exact) a tile of columns at a time, and each row
  // of a once per tile, so the dot loops do no conversions; then compute
  // four output columns per pass. Widening per chunk instead made this
  // kernel shuffle-port bound on the model's 16x16x32 dX. Columns past the
  // last multiple of four, and k too long for the buffer, take one dot at a
  // time; both give the same bits.
  constexpr std::size_t kWideMax = 2048;  // doubles: 16 KB of stack
  const std::size_t n4 = n / 4 * 4;
  std::size_t j_done = 0;
  if (n4 > 0 && k > 0 && k <= kWideMax / 8) {
    const std::size_t tile = (kWideMax / k - 1) / 4 * 4;  // columns; one row of a besides
    alignas(32) double wide[kWideMax];
    for (std::size_t j0 = 0; j0 < n4; j0 += tile) {
      const std::size_t j1 = std::min(n4, j0 + tile);
      double* a_wide = wide + (j1 - j0) * k;
      widen(b + j0 * k, wide, (j1 - j0) * k);
      for (std::size_t i = 0; i < m; ++i) {
        widen(a + i * k, a_wide, k);
        for (std::size_t j = j0; j < j1; j += 4)
          dot4(a_wide, wide + (j - j0) * k, k, out + i * n + j);
      }
    }
    j_done = n4;
  }
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = j_done; j < n; ++j) out[i * n + j] = dot1(a + i * k, b + j * k, k);
}

double a_sum_squares(const float* x, std::size_t n, double acc) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(lo, lo));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(hi, hi));
  }
  double partial = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) partial += static_cast<double>(x[i]) * x[i];
  return acc + partial;
}

std::size_t clamp_token(std::int32_t raw, std::size_t vocab) {
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(raw, 0, static_cast<std::int64_t>(vocab) - 1));
}

void a_gather_mean_rows(const float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, float* out) {
  if (count == 0) return;
  for (std::size_t t = 0; t < count; ++t)
    a_add(out, table + clamp_token(tokens[t], vocab) * dim, dim);
  a_scale(out, 1.0f / static_cast<float>(count), dim);
}

void a_scatter_add_rows(float* table, std::size_t dim, const std::int32_t* tokens,
                        std::size_t count, std::size_t vocab, const float* grad, float s) {
  for (std::size_t t = 0; t < count; ++t)
    a_axpy(table + clamp_token(tokens[t], vocab) * dim, grad, s, dim);
}

constexpr KernelTable kAvx2Table = {
    a_add,
    a_sub,
    a_scale,
    a_axpy,
    a_scale_add,
    a_sgd_step,
    a_sgd_momentum_step,
    a_server_momentum_step,
    a_weighted_accum,
    a_mean_from_sums,
    a_max_abs,
    a_matmul,
    a_transposed_matmul,
    a_matmul_transposed,
    a_sum_squares,
    a_gather_mean_rows,
    a_scatter_add_rows,
};

}  // namespace

const KernelTable& avx2_table() { return kAvx2Table; }

}  // namespace flint::ml::kernels

#endif  // __AVX2__
