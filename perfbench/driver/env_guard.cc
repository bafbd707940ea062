#include "driver/env_guard.h"

extern char** environ;

namespace perfbench {

std::vector<std::string> StrayDvmsVariables(
    const std::vector<std::string>& entries) {
  std::vector<std::string> stray;
  for (const std::string& entry : entries) {
    std::string name = entry.substr(0, entry.find('='));
    if (name.rfind("DVMS_", 0) == 0) stray.push_back(name);
  }
  return stray;
}

std::vector<std::string> StrayDvmsVariables() {
  std::vector<std::string> entries;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    entries.emplace_back(*e);
  }
  return StrayDvmsVariables(entries);
}

}  // namespace perfbench
