// Every core's setting in a manager's last decision, read one core at a
// time through ResourceManager::setting: the tests that compare whole
// decisions compare these.
#ifndef QOSRM_TESTS_SUPPORT_SETTINGS_OF_HH
#define QOSRM_TESTS_SUPPORT_SETTINGS_OF_HH

#include <vector>

#include "rm/resource_manager.hh"

namespace qosrm::testing {

inline std::vector<workload::Setting> settings_of(const rm::ResourceManager& manager) {
  std::vector<workload::Setting> settings;
  for (int k = 0; k < manager.system().cores; ++k) settings.push_back(manager.setting(k));
  return settings;
}

}  // namespace qosrm::testing

#endif  // QOSRM_TESTS_SUPPORT_SETTINGS_OF_HH
