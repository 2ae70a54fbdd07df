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

bool avx512f_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

bool lane_width_available(int width) noexcept {
  return width == kNarrowLanes ||
         (width == kWideLanes && avx2_compiled() && avx512f_supported());
}

int lane_width() noexcept {
  static const int width =
      lane_width_available(kWideLanes) ? kWideLanes : kNarrowLanes;
  return width;
}

}  // namespace qosrm::simd
