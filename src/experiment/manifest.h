#ifndef DUP_EXPERIMENT_MANIFEST_H_
#define DUP_EXPERIMENT_MANIFEST_H_

#include <string>
#include <string_view>
#include <vector>

#include "experiment/config.h"
#include "experiment/parallel_runner.h"
#include "metrics/run_manifest.h"
#include "util/json.h"

namespace dupnet::experiment {

/// Flattens an ExperimentConfig into the free-form JSON object a
/// metrics::RunManifest carries (the metrics layer must not depend on this
/// one): every key of the config key table (experiment/config_keys.h)
/// under its command-line name, so any manifest config replays as
/// key=value arguments. The seed is a decimal string because JSON doubles
/// lose 64-bit precision.
util::JsonValue ConfigToJson(const ExperimentConfig& config);

/// Same, restricted to the table keys named in `keys`.
util::JsonValue ConfigToJson(const ExperimentConfig& config,
                             const std::vector<std::string_view>& keys);

/// Builds the provenance manifest for a run of `config`: tool/exhibit,
/// commit, host, seed, jobs and the full flattened config. The caller
/// stamps wall_seconds once the batch finishes (e.g. from
/// BatchTiming::wall_seconds).
metrics::RunManifest MakeRunManifest(std::string tool, std::string exhibit,
                                     const ExperimentConfig& config,
                                     size_t jobs);

}  // namespace dupnet::experiment

#endif  // DUP_EXPERIMENT_MANIFEST_H_
