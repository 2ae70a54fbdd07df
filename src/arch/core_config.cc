#include "arch/core_config.hh"

namespace qosrm::arch {

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

}  // namespace qosrm::arch
