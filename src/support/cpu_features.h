// Runtime CPU-feature detection and the kernel-ISA dispatch knob.
//
// The GEMM kernel layer (src/nn/kernels.h) ships one portable scalar
// implementation plus hand-written AVX2 microkernels compiled into their own
// translation unit with -mavx2. Which body runs is decided here, at runtime,
// so a single binary is portable across x86 microarchitectures:
//
//   * `CpuSupportsAvx2Fma()` asks CPUID (via the compiler builtin, which also
//     verifies OS xsave support) whether AVX2+FMA are usable on this host.
//   * `ActiveKernelIsa()` is what the kernels actually dispatch on. It
//     defaults to the best supported ISA and honors the CDMPP_KERNEL_ISA
//     environment variable (`scalar` or `avx2`) read once at first use —
//     the knob CI's scalar-fallback job and A/B benchmarking use. Requesting
//     an unsupported ISA falls back to scalar with a warning on stderr.
//   * `SetKernelIsa()` overrides the active ISA programmatically; tests and
//     bench_gemm use it to run both paths in one process.
//
// Both kernel bodies accumulate each output element over the reduction in
// ascending p order, independent of batch size and thread partition, so the
// serving layer's bitwise batch-size-invariance contract holds under either
// ISA. Switching ISA changes last-ulp rounding only: the AVX2 body fuses each
// multiply-add (FMA, one rounding) while the scalar body — pinned to plain
// IEEE mul+add via -ffp-contract=off — rounds twice, so the two agree to
// ~1e-6 relative. Pick the ISA per process, not per request.
#ifndef SRC_SUPPORT_CPU_FEATURES_H_
#define SRC_SUPPORT_CPU_FEATURES_H_

namespace cdmpp {

enum class KernelIsa { kScalar, kAvx2 };

// True when this build has the AVX2 kernel bodies and the host CPU + OS
// support AVX2 and FMA. False on non-x86 builds.
bool CpuSupportsAvx2Fma();

// The ISA the kernel layer dispatches to right now.
KernelIsa ActiveKernelIsa();

// Overrides the active ISA. Returns false (and changes nothing) when the
// requested ISA is not available on this host/build.
bool SetKernelIsa(KernelIsa isa);

// "scalar" / "avx2" — the spelling CDMPP_KERNEL_ISA accepts and the benches
// and ServerStats report.
const char* KernelIsaName(KernelIsa isa);

// ---- Serving numeric precision (the CDMPP_KERNEL_ISA sibling knob). ---------
//
// kFp32 is the default data plane. kInt8 routes serving forwards through
// the int8 symmetric-quantized kernel layer (src/nn/quantize.h):
// transformer-encoder QKV/output projections and FFN pair, per-leaf-count
// heads, device MLP, and decoder hiddens (attention's activation×activation
// score/context GEMMs, the input projection, LayerNorms, and the decoder's
// final [*, 1] projection stay fp32 — see README "Int8 quantized serving").
// Unlike the ISA, precision is a per-service choice (ServeOptions::precision),
// not a global dispatch: DefaultPrecision() only resolves the CDMPP_PRECISION
// environment override ("fp32" | "int8", read once at first use) that seeds
// that option — the knob CI's int8 matrix legs use. Unknown values are
// rejected loudly on stderr and fall back to fp32.
enum class Precision { kFp32, kInt8 };

// Strict full-string parse of a CDMPP_PRECISION spelling ("fp32" | "int8").
// Returns false — writing nothing — for anything else, including null,
// empty, whitespace, prefixes ("int"), and trailing garbage ("int8x"):
// misconfigured values must be rejected, never silently coerced (the
// ResolveNumThreads hardening pattern). Exposed for regression tests;
// DefaultPrecision() is the one production caller.
bool ParsePrecision(const char* value, Precision* out);

Precision DefaultPrecision();

// "fp32" / "int8" — the spelling CDMPP_PRECISION accepts and
// the benches and ServerStats report.
const char* PrecisionName(Precision precision);

}  // namespace cdmpp

#endif  // SRC_SUPPORT_CPU_FEATURES_H_
