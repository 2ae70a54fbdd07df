// SIMD dispatch for the optimizer hot paths.
//
// The build decides what is compiled with -DQOSRM_SIMD=auto|scalar:
//
//   auto   - (default) the AVX2 kernels are compiled when the toolchain
//            targets x86-64 with GCC or Clang, and they run iff the CPU
//            reports AVX2; otherwise the scalar path runs.
//   scalar - the AVX2 kernels are not compiled at all (a toolchain without
//            AVX2); every consumer runs the portable scalar code path.
//
// Every vectorized kernel in the tree is pinned bit-identical to its scalar
// fallback by randomized equivalence tests, which pass a Level explicitly,
// so the dispatch level never changes a result - only the wall time.
#ifndef QOSRM_COMMON_SIMD_HH
#define QOSRM_COMMON_SIMD_HH

namespace qosrm::simd {

enum class Level { Scalar = 0, Avx2 = 1 };

/// True when the AVX2 kernels were compiled into this binary.
[[nodiscard]] bool avx2_compiled() noexcept;

/// True when the running CPU reports AVX2 support.
[[nodiscard]] bool avx2_supported() noexcept;

/// The dispatch level every hot path uses: Avx2 iff the kernels were
/// compiled and the CPU supports them.
[[nodiscard]] Level active_level() noexcept;

/// Lower-case name for logs and bench JSON ("scalar" / "avx2").
[[nodiscard]] const char* level_name(Level level) noexcept;

}  // namespace qosrm::simd

#endif  // QOSRM_COMMON_SIMD_HH
