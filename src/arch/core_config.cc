#include "arch/core_config.hh"

#include "common/check.hh"

namespace qosrm::arch {

namespace {
// Paper Table I plus energy scaling factors. The EPI/leakage scales are
// McPAT-flavoured: upsizing S->M->L grows per-instruction switching energy
// sub-linearly with width (wider structures, but shared front-end/caches) and
// leakage roughly with active area.
constexpr std::array<CoreParams, kNumCoreSizes> kParams = {{
    {CoreSize::S, 2, 64, 16, 10, /*epi_scale=*/0.90, /*leak_scale=*/0.74},
    {CoreSize::M, 4, 128, 64, 32, /*epi_scale=*/1.00, /*leak_scale=*/1.00},
    {CoreSize::L, 8, 256, 128, 64, /*epi_scale=*/1.13, /*leak_scale=*/1.32},
}};
}  // namespace

std::string_view core_size_name(CoreSize c) noexcept {
  switch (c) {
    case CoreSize::S:
      return "S";
    case CoreSize::M:
      return "M";
    case CoreSize::L:
      return "L";
  }
  return "?";
}

const CoreParams& core_params(CoreSize c) noexcept {
  return kParams[static_cast<std::size_t>(c)];
}

}  // namespace qosrm::arch
