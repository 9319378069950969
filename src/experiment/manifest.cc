#include "experiment/manifest.h"

#include <utility>

#include "experiment/config_keys.h"
#include "util/check.h"

namespace dupnet::experiment {

util::JsonValue ConfigToJson(const ExperimentConfig& config) {
  return ConfigToJson(config, AllConfigKeys());
}

util::JsonValue ConfigToJson(const ExperimentConfig& config,
                             const std::vector<std::string_view>& keys) {
  util::JsonValue json = util::JsonValue::MakeObject();
  for (std::string_view name : keys) {
    const ConfigKey* key = FindConfigKey(name);
    DUP_CHECK(key != nullptr) << "no config key \"" << name << "\"";
    json.Set(std::string(name), key->get(config));
  }
  return json;
}

metrics::RunManifest MakeRunManifest(std::string tool, std::string exhibit,
                                     const ExperimentConfig& config,
                                     size_t jobs) {
  metrics::RunManifest manifest =
      metrics::RunManifest::Create(std::move(tool), std::move(exhibit));
  manifest.seed = config.seed;
  manifest.jobs = jobs;
  manifest.config = ConfigToJson(config);
  return manifest;
}

}  // namespace dupnet::experiment
