#include "src/support/cpu_features.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cdmpp {
namespace {

bool DetectAvx2Fma() {
#if defined(CDMPP_HAVE_AVX2_KERNELS) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports checks the CPUID feature bits and, for AVX-family
  // features, that the OS has enabled the YMM state via XGETBV.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

KernelIsa ResolveFromEnv() {
  const bool avx2_ok = CpuSupportsAvx2Fma();
  if (const char* env = std::getenv("CDMPP_KERNEL_ISA")) {
    if (std::strcmp(env, "scalar") == 0) {
      return KernelIsa::kScalar;
    }
    if (std::strcmp(env, "avx2") == 0) {
      if (avx2_ok) {
        return KernelIsa::kAvx2;
      }
      std::fprintf(stderr,
                   "cdmpp: CDMPP_KERNEL_ISA=avx2 requested but AVX2+FMA is unavailable "
                   "on this host/build; using scalar kernels\n");
      return KernelIsa::kScalar;
    }
    if (env[0] != '\0') {
      std::fprintf(stderr,
                   "cdmpp: unknown CDMPP_KERNEL_ISA '%s' (expected scalar|avx2); "
                   "auto-detecting\n",
                   env);
    }
  }
  return avx2_ok ? KernelIsa::kAvx2 : KernelIsa::kScalar;
}

std::atomic<int>& ActiveIsaSlot() {
  static std::atomic<int> slot{static_cast<int>(ResolveFromEnv())};
  return slot;
}

}  // namespace

bool CpuSupportsAvx2Fma() {
  static const bool supported = DetectAvx2Fma();
  return supported;
}

// Relaxed on the ISA slot: it selects between kernel implementations that
// are pure functions of their arguments — no data is published alongside
// the enum, so there is no ordering for acquire/release to enforce. Tests
// that flip the ISA then assert on results do both from the same thread
// (sequenced-before covers them).
KernelIsa ActiveKernelIsa() {
  return static_cast<KernelIsa>(ActiveIsaSlot().load(std::memory_order_relaxed));
}

bool SetKernelIsa(KernelIsa isa) {
  if (isa == KernelIsa::kAvx2 && !CpuSupportsAvx2Fma()) {
    return false;
  }
  ActiveIsaSlot().store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

const char* KernelIsaName(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "scalar";
}

bool ParsePrecision(const char* value, Precision* out) {
  if (value == nullptr) {
    return false;
  }
  // Exact full-string matches only: "int8-heads", "int8 ", "INT8", or "int8x"
  // must all be rejected, not coerced to the nearest tier — a typo'd knob
  // silently serving a different precision is the failure mode this guards.
  if (std::strcmp(value, "fp32") == 0) {
    *out = Precision::kFp32;
    return true;
  }
  if (std::strcmp(value, "int8") == 0) {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

Precision DefaultPrecision() {
  static const Precision resolved = [] {
    if (const char* env = std::getenv("CDMPP_PRECISION")) {
      Precision parsed;
      if (ParsePrecision(env, &parsed)) {
        return parsed;
      }
      // Empty means unset (CI matrix legs export '' for the default config);
      // anything else is a misconfiguration worth shouting about.
      if (env[0] != '\0') {
        std::fprintf(stderr,
                     "cdmpp: rejected CDMPP_PRECISION '%s' (expected exactly "
                     "fp32|int8); using fp32\n",
                     env);
      }
    }
    return Precision::kFp32;
  }();
  return resolved;
}

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kInt8:
      return "int8";
    case Precision::kFp32:
      break;
  }
  return "fp32";
}

}  // namespace cdmpp
