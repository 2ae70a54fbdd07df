#include "common/simd.hh"

namespace qosrm::simd {

bool avx2_compiled() noexcept {
#ifdef QOSRM_SIMD_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool avx2_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Level active_level() noexcept {
  static const Level level =
      avx2_compiled() && avx2_supported() ? Level::Avx2 : Level::Scalar;
  return level;
}

const char* level_name(Level level) noexcept {
  return level == Level::Avx2 ? "avx2" : "scalar";
}

}  // namespace qosrm::simd
