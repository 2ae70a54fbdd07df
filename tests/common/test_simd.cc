// SIMD dispatch: the level every hot path uses is fixed by what the build
// compiled and what the CPU supports.
#include "common/simd.hh"

#include <gtest/gtest.h>

namespace qosrm::simd {
namespace {

bool avx2_available() { return avx2_compiled() && avx2_supported(); }

TEST(SimdResolve, Avx2AcceptedWhenAvailable) {
  if (!avx2_available()) {
    GTEST_SKIP() << "AVX2 path not available on this build/CPU";
  }
  EXPECT_EQ(active_level(), Level::Avx2);
}

// The -DQOSRM_SIMD=scalar build (and any CPU without AVX2) runs the scalar
// fallback everywhere.
TEST(SimdResolve, ActiveLevelIsCompiledAndSupported) {
  EXPECT_EQ(active_level(), avx2_available() ? Level::Avx2 : Level::Scalar);
}

// The leading-miss kernels run 16 lanes iff the wide kernels were compiled
// (under the AVX2 kernels' build gate) and the CPU reports AVX-512F, else 4.
TEST(SimdResolve, LaneWidthIsWideIffCompiledAndSupported) {
#ifdef QOSRM_SIMD_HAVE_AVX2
  const bool wide = avx512f_supported();
#else
  const bool wide = false;
#endif
  EXPECT_EQ(lane_width(), wide ? 16 : 4);
  EXPECT_TRUE(lane_width_available(kNarrowLanes));
  EXPECT_EQ(lane_width_available(kWideLanes), wide);
  EXPECT_FALSE(lane_width_available(8));
}

TEST(SimdResolve, LevelNames) {
  EXPECT_STREQ(level_name(Level::Scalar), "scalar");
  EXPECT_STREQ(level_name(Level::Avx2), "avx2");
}

}  // namespace
}  // namespace qosrm::simd
