#ifndef DUP_EXPERIMENT_CONFIG_KEYS_H_
#define DUP_EXPERIMENT_CONFIG_KEYS_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/config.h"
#include "util/config.h"
#include "util/json.h"
#include "util/status.h"

namespace dupnet::experiment {

/// One row of the key table: the single mapping between a key=value
/// string and an ExperimentConfig field. dupsim, dupd, the bench
/// environment and run manifests all go through this table, so a key means
/// the same thing, parses the same way and is range-checked the same way
/// everywhere.
struct ConfigKey {
  std::string_view name;  ///< Command-line key and manifest field name.
  std::string_view env;   ///< Environment alias, or empty.
  std::string_view doc;   ///< One line for usage listings.
  /// Parses and range-checks `value` into `config`. The error says what
  /// was expected; callers prefix the key (or alias) it came from.
  std::function<util::Status(std::string_view value, ExperimentConfig*)> set;
  /// The field's current value, for manifests.
  std::function<util::JsonValue(const ExperimentConfig&)> get;

  /// The field's current value as text `set` accepts.
  std::string Format(const ExperimentConfig& config) const;
};

/// Every key, in manifest order.
const std::vector<ConfigKey>& ConfigKeys();

/// The row named `name`, or nullptr.
const ConfigKey* FindConfigKey(std::string_view name);

/// Names of every row (for a front end that accepts the whole table).
std::vector<std::string_view> AllConfigKeys();

/// How a tool key's value is checked before the tool reads it.
enum class ValueKind {
  kText,           ///< Any string.
  kCount,          ///< Integer >= 0.
  kPositiveCount,  ///< Integer >= 1.
  kNonNegative,    ///< Finite number >= 0.
  kPositive,       ///< Finite number > 0.
};

/// A key a front end reads itself because it is not an ExperimentConfig
/// field (replication count, output paths, cluster wiring, ...).
struct ToolKey {
  std::string_view name;
  std::string_view doc;  ///< One line, including the tool's default.
  ValueKind kind = ValueKind::kText;
  std::string_view env = {};  ///< Environment alias, or empty.
};

/// The keys one front end (or one mode of it) accepts. A tool key shadows
/// a table row of the same name.
struct KeySchema {
  std::string_view owner;  ///< Named in errors: "dupd", "dupsim keys=K mode".
  std::vector<std::string_view> config_keys;
  std::vector<ToolKey> tool_keys;
};

/// For every key of `schema` that has an environment alias and is absent
/// from `args`, copies the variable's value into `args`, so it reaches the
/// same parser and range check as a command-line value. A malformed value
/// is an error naming the variable.
util::Status ResolveEnvAliases(const KeySchema& schema, util::ConfigMap* args);

/// Checks every entry of `args` against `schema` and applies the table
/// keys to `config`. Keys absent from `args` keep whatever `config` holds,
/// so a tool sets its own defaults first. A key outside the schema is an
/// error that lists the accepted keys with their doc lines; a malformed
/// value is an error naming the key. On error `config` is unspecified.
util::Status ApplyKeys(const KeySchema& schema, const util::ConfigMap& args,
                       ExperimentConfig* config);

}  // namespace dupnet::experiment

#endif  // DUP_EXPERIMENT_CONFIG_KEYS_H_
