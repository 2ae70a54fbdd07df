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

TEST(SimdResolve, LevelNames) {
  EXPECT_STREQ(level_name(Level::Scalar), "scalar");
  EXPECT_STREQ(level_name(Level::Avx2), "avx2");
}

}  // namespace
}  // namespace qosrm::simd
