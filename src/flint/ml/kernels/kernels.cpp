// Kernel path resolution + the fused DP clip/noise orchestration.
//
// Resolution happens once per process, on the first call into active() (or
// eagerly via set_path()). Precedence: explicit set_path() spec, then the
// FLINT_KERNELS env var, then auto-detection (AVX2 if the CPU reports it,
// NEON on aarch64 builds, scalar otherwise). State lives in plain statics:
// the flag is parsed and installed at startup before any worker threads
// exist, and every later read is a const load of a resolved pointer.
#include "flint/ml/kernels/kernels.h"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "flint/util/check.h"

namespace flint::ml::kernels {

const KernelTable& scalar_table();
#if defined(__x86_64__) || defined(__i386__)
const KernelTable& avx2_table();
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
const KernelTable& neon_table();
#endif

namespace {

struct Dispatch {
  KernelPath path = KernelPath::kScalar;
  const KernelTable* table = nullptr;
  std::string spec = "auto";
  bool resolved = false;
};

Dispatch g_dispatch;

KernelPath detect_path() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return KernelPath::kAvx2;
#elif defined(__aarch64__) && defined(__ARM_NEON)
  return KernelPath::kNeon;
#endif
  return KernelPath::kScalar;
}

KernelPath parse_spec(const std::string& spec) {
  if (spec == "auto") return detect_path();
  if (spec == "scalar") return KernelPath::kScalar;
  if (spec == "avx2") return KernelPath::kAvx2;
  if (spec == "neon") return KernelPath::kNeon;
  FLINT_CHECK_MSG(false, "unknown --kernels spec '" << spec
                             << "' (expected auto|scalar|avx2|neon)");
  return KernelPath::kScalar;
}

void install(const std::string& spec) {
  KernelPath path = parse_spec(spec);
  FLINT_CHECK_MSG(path_supported(path), "kernel path '" << path_name(path)
                                            << "' is not supported on this host");
  g_dispatch.path = path;
  g_dispatch.table = &table_for(path);
  g_dispatch.spec = spec;
  g_dispatch.resolved = true;
}

void resolve_if_needed() {
  // A function-local static: threads that make the first call concurrently
  // (parallel runs that never called set_path) resolve once, and every
  // caller's later reads of g_dispatch are ordered after that resolution.
  static const bool resolved = [] {
    if (g_dispatch.resolved) return true;
    const char* env = std::getenv("FLINT_KERNELS");
    install(env != nullptr && env[0] != '\0' ? std::string(env) : std::string("auto"));
    return true;
  }();
  (void)resolved;
}

}  // namespace

const char* path_name(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kAvx2:
      return "avx2";
    case KernelPath::kNeon:
      return "neon";
  }
  return "unknown";
}

bool path_supported(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return true;
    case KernelPath::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelPath::kNeon:
#if defined(__aarch64__) && defined(__ARM_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable& table_for(KernelPath path) {
  FLINT_CHECK_MSG(path_supported(path), "kernel path '" << path_name(path)
                                            << "' is not supported on this host");
  switch (path) {
    case KernelPath::kScalar:
      return scalar_table();
    case KernelPath::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return avx2_table();
#else
      break;
#endif
    case KernelPath::kNeon:
#if defined(__aarch64__) && defined(__ARM_NEON)
      return neon_table();
#else
      break;
#endif
  }
  return scalar_table();
}

const KernelTable& active() {
  resolve_if_needed();
  return *g_dispatch.table;
}

KernelPath active_path() {
  resolve_if_needed();
  return g_dispatch.path;
}

void set_path(const std::string& spec) { install(spec); }

const std::string& requested_spec() {
  resolve_if_needed();
  return g_dispatch.spec;
}

double clip_noise(float* v, std::size_t n, double clip_norm, double stddev,
                  util::Rng& rng) {
  const KernelTable& k = active();
  double norm = std::sqrt(k.sum_squares(v, n, 0.0));
  float scale = 1.0f;
  if (norm > clip_norm) scale = static_cast<float>(clip_norm / norm);
  if (stddev == 0.0) {
    if (scale != 1.0f) k.scale(v, scale, n);
    return norm;
  }
  // Draw the noise up front, in element order, so the RNG consumption matches
  // the classic two-pass clip-then-noise draw-for-draw. The fused sweep
  // v = v*scale + noise then rounds exactly like scale-pass + add-pass did
  // (one mul, one add; scale == 1 multiplies exactly).
  std::vector<float> noise(n);
  for (std::size_t i = 0; i < n; ++i)
    noise[i] = static_cast<float>(rng.normal(0.0, stddev));
  k.scale_add(v, scale, noise.data(), n);
  return norm;
}

}  // namespace flint::ml::kernels
