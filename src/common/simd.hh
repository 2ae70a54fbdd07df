// SIMD dispatch for the optimizer and characterization hot paths.
//
// The build decides what is compiled with -DQOSRM_SIMD=auto|scalar:
//
//   auto   - (default) the AVX2 kernels and the 16-lane AVX-512F
//            leading-miss kernels are compiled when the toolchain targets
//            x86-64 with GCC or Clang. The AVX2 kernels run iff the CPU
//            reports AVX2, the 16-lane ones iff it reports AVX-512F;
//            otherwise the scalar path and the 4-lane kernels run.
//   scalar - neither is compiled (a toolchain without AVX2); every
//            consumer runs the portable scalar code path and 4-lane
//            leading-miss kernels.
//
// Every vectorized kernel in the tree is pinned bit-identical to its
// fallback by randomized equivalence tests, which pass a Level or a lane
// width explicitly, so the dispatch never changes a result - only the wall
// time.
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

/// Lane widths of the leading-miss kernels (cache/lanes.hh): 4 x u32 blocks
/// run on every target, 16 x u32 blocks need AVX-512F.
inline constexpr int kNarrowLanes = 4;
inline constexpr int kWideLanes = 16;

/// True when the running CPU (and its OS) reports AVX-512F support.
[[nodiscard]] bool avx512f_supported() noexcept;

/// True when the leading-miss kernels can run at `width` here: the narrow
/// width always, the wide one iff compiled (with the AVX2 kernels, under
/// the same build gate) and supported.
[[nodiscard]] bool lane_width_available(int width) noexcept;

/// The lane width the leading-miss kernels use: kWideLanes iff it is
/// available, else kNarrowLanes. level_name() does not name it: the width
/// changes no result, and bench records stamp that name.
[[nodiscard]] int lane_width() noexcept;

}  // namespace qosrm::simd

#endif  // QOSRM_COMMON_SIMD_HH
