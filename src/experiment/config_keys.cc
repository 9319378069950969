#include "experiment/config_keys.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "trace/jsonl_writer.h"
#include "util/str.h"

namespace dupnet::experiment {

namespace {

using util::JsonValue;
using util::Status;

/// Accepted interval of a real-valued key; values must also be finite.
struct Range {
  double lo;
  double hi;
  bool open;  ///< Excludes both ends.
  const char* what;
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kPositive{0.0, kInf, true, "a positive number"};
constexpr Range kNonNegative{0.0, kInf, false, "a non-negative number"};
constexpr Range kProbability{0.0, 1.0, false, "a number in [0, 1]"};
constexpr Range kOpenUnit{0.0, 1.0, true, "a number in (0, 1)"};
constexpr Range kAtLeastOne{1.0, kInf, false, "a number >= 1"};

Status ParseReal(std::string_view text, const Range& range, double* out) {
  double v = 0.0;
  const bool in_range =
      util::ParseDouble(text, &v) && std::isfinite(v) &&
      (range.open ? v > range.lo && v < range.hi
                  : v >= range.lo && v <= range.hi);
  if (!in_range) {
    return Status::InvalidArgument(std::string("expected ") + range.what);
  }
  *out = v;
  return Status::OK();
}

Status ParseInteger(std::string_view text, int64_t lo, int64_t hi,
                    int64_t* out) {
  int64_t v = 0;
  if (!util::ParseInt64(text, &v) || v < lo || v > hi) {
    return Status::InvalidArgument(
        hi == std::numeric_limits<int64_t>::max()
            ? util::StrFormat("expected an integer >= %lld",
                              static_cast<long long>(lo))
            : util::StrFormat("expected an integer in [%lld, %lld]",
                              static_cast<long long>(lo),
                              static_cast<long long>(hi)));
  }
  *out = v;
  return Status::OK();
}

Status ParseFlag(std::string_view text, bool* out) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    *out = true;
  } else if (text == "0" || text == "false" || text == "no" ||
             text == "off") {
    *out = false;
  } else {
    return Status::InvalidArgument("expected a boolean (1/0, true/false, "
                                   "yes/no, on/off)");
  }
  return Status::OK();
}

// Row builders. `field` is a generic lambda returning a reference to the
// row's member of a mutable or const config, so one accessor serves both
// the setter and the getter.

template <typename F>
using FieldType = std::remove_cvref_t<
    decltype(std::declval<F>()(std::declval<ExperimentConfig&>()))>;

template <typename F>
ConfigKey Real(std::string_view name, std::string_view doc, Range range,
               F field, std::string_view env = {}) {
  return {name, env, doc,
          [range, field](std::string_view text, ExperimentConfig* config) {
            return ParseReal(text, range, &field(*config));
          },
          [field](const ExperimentConfig& config) {
            return JsonValue(static_cast<double>(field(config)));
          }};
}

template <typename F>
ConfigKey Integer(
    std::string_view name, std::string_view doc, int64_t lo, F field,
    int64_t hi = static_cast<int64_t>(std::min<uint64_t>(
        std::numeric_limits<FieldType<F>>::max(),
        std::numeric_limits<int64_t>::max()))) {
  return {name, {}, doc,
          [lo, hi, field](std::string_view text, ExperimentConfig* config) {
            int64_t v = 0;
            Status status = ParseInteger(text, lo, hi, &v);
            if (status.ok()) field(*config) = static_cast<FieldType<F>>(v);
            return status;
          },
          [field](const ExperimentConfig& config) {
            return JsonValue(static_cast<int64_t>(field(config)));
          }};
}

template <typename F>
ConfigKey Flag(std::string_view name, std::string_view doc, F field) {
  return {name, {}, doc,
          [field](std::string_view text, ExperimentConfig* config) {
            return ParseFlag(text, &field(*config));
          },
          [field](const ExperimentConfig& config) {
            return JsonValue(static_cast<bool>(field(config)));
          }};
}

template <typename E, typename F>
ConfigKey Choice(std::string_view name, std::string_view doc,
                 util::Result<E> (*parse)(std::string_view),
                 std::string_view (*to_string)(E), F field,
                 std::string_view env = {}) {
  return {name, env, doc,
          [parse, field](std::string_view text, ExperimentConfig* config) {
            util::Result<E> value = parse(text);
            if (value.ok()) field(*config) = *value;
            return value.status();
          },
          [to_string, field](const ExperimentConfig& config) {
            return JsonValue(to_string(field(config)));
          }};
}

template <typename F>
ConfigKey Text(std::string_view name, std::string_view doc, F field,
               std::string_view env = {},
               Status (*check)(std::string_view) = nullptr) {
  return {name, env, doc,
          [check, field](std::string_view text, ExperimentConfig* config) {
            Status status = check != nullptr ? check(text) : Status::OK();
            if (status.ok()) field(*config) = std::string(text);
            return status;
          },
          [field](const ExperimentConfig& config) {
            return JsonValue(field(config));
          }};
}

/// The full 64-bit seed range; serialised as a decimal string because JSON
/// doubles lose 64-bit precision.
ConfigKey Seed() {
  return {"seed", {}, "base RNG seed",
          [](std::string_view text, ExperimentConfig* config) {
            uint64_t v = 0;
            const auto [end, ec] =
                std::from_chars(text.data(), text.data() + text.size(), v);
            if (ec != std::errc() || end != text.data() + text.size()) {
              return Status::InvalidArgument(
                  "expected an unsigned 64-bit integer");
            }
            config->seed = v;
            return Status::OK();
          },
          [](const ExperimentConfig& config) {
            return JsonValue(std::to_string(config.seed));
          }};
}

Status CheckTraceSample(std::string_view text) {
  return trace::TraceSampling::Parse(text).status();
}

// The row's member of a mutable or const config.
#define FIELD(member) [](auto& c) -> auto& { return c.member; }

std::vector<ConfigKey> BuildTable() {
  return {
      Choice("scheme", "consistency scheme: pcx|cup|dup|adaptive", ParseScheme,
          SchemeToString, FIELD(scheme)),
      Choice("topology", "index search tree: random-tree|chord",
          ParseTopology, TopologyToString, FIELD(topology)),
      Integer("nodes", "network size n", 2, FIELD(num_nodes)),
      Integer("degree", "max children D per random-tree node", 1,
          FIELD(max_degree)),
      Real("lambda", "network-wide query rate lambda, queries/s", kPositive,
          FIELD(lambda)),
      Choice("arrival", "query inter-arrivals: exponential|pareto",
          ParseArrival, ArrivalToString, FIELD(arrival)),
      Real("alpha", "Pareto shape (arrival=pareto), in (1, 2)", kPositive,
          FIELD(pareto_alpha)),
      Real("theta", "Zipf skew theta of queries across nodes", kNonNegative,
          FIELD(zipf_theta)),
      Integer("c", "interest threshold c", 0, FIELD(threshold_c)),
      Flag("fwd", "forwarded requests count toward interest",
          FIELD(count_forwarded_queries)),
      Flag("percopy", "every cached copy restarts the TTL on install",
          FIELD(per_copy_ttl)),
      Flag("passrep", "passing replies populate intermediate caches",
          FIELD(cache_passing_replies)),
      Real("ttl", "index TTL, s", kPositive, FIELD(ttl)),
      Real("lead", "push lead before the previous version expires, s",
          kNonNegative, FIELD(push_lead)),
      Choice("updates", "update timing: ttl-aligned|host-driven",
          ParseUpdateMode, UpdateModeToString, FIELD(update_mode)),
      Real("change_rate", "updates=host-driven: index changes per second",
          kPositive, FIELD(host_change_rate)),
      Real("hoplat", "mean per-hop latency, s", kPositive,
          FIELD(hop_latency_mean)),
      Real("warmup", "warm-up before measuring, s", kNonNegative,
          FIELD(warmup_time)),
      Real("measure", "measured horizon, s", kPositive, FIELD(measure_time)),
      Flag("shortcut", "DUP pushes straight to subscribers (0 = ablation)",
          FIELD(dup.shortcut_push)),
      Flag("piggyback", "DUP piggybacks subscribes on requests",
          FIELD(dup.piggyback_subscribe)),
      Integer("max_arity", "DUP direct push fan-out cap (0 = unbounded)", 0,
          FIELD(dup.max_arity)),
      Choice("cup_policy",
          "CUP push: demand-window|popularity-threshold|investment-return",
          proto::ParseCupPushPolicy, proto::CupPushPolicyToString,
          FIELD(cup.policy)),
      Real("demand_window", "adaptive: demand measurement window, s",
          kPositive, FIELD(adaptive.demand_window)),
      Real("cup_enter", "adaptive: queries per update to enter CUP", kPositive,
          FIELD(adaptive.cup_enter_per_update)),
      Real("dup_enter", "adaptive: queries per update to enter DUP", kPositive,
          FIELD(adaptive.dup_enter_per_update)),
      Real("exit_fraction", "adaptive: hysteresis exit fraction", kOpenUnit,
          FIELD(adaptive.exit_fraction)),
      Integer("dwell", "adaptive: updates between migrations", 0,
          FIELD(adaptive.dwell_updates)),
      Real("join", "churn: node joins per second", kNonNegative,
          FIELD(churn.join_rate)),
      Real("leave", "churn: graceful leaves per second", kNonNegative,
          FIELD(churn.leave_rate)),
      Real("fail", "churn: crash failures per second", kNonNegative,
          FIELD(churn.fail_rate)),
      Real("detect", "churn: failure detection delay, s", kNonNegative,
          FIELD(churn.detect_delay)),
      Real("loss_rate", "per-transmission loss probability", kProbability,
          FIELD(faults.loss_rate)),
      Real("jitter", "uniform extra latency per message, s", kNonNegative,
          FIELD(faults.jitter)),
      Integer("retry_max", "retransmissions per message (0 = no acks)", 0,
          FIELD(faults.retry_max)),
      Real("retry_timeout", "first retransmission timeout, s", kPositive,
          FIELD(faults.retry_timeout)),
      Real("retry_backoff", "timeout multiplier per retransmission",
          kAtLeastOne, FIELD(faults.retry_backoff)),
      Real("refresh_interval", "soft-state refresh period, s (0 = off)",
          kNonNegative, FIELD(faults.refresh_interval)),
      Seed(),
      Choice("scheduler", "event queue: calendar|heap (bit-identical)",
          ParseScheduler, SchedulerToString, FIELD(scheduler),
          "DUP_SCHEDULER"),
      Choice("transport", "medium: sim|wire (loopback UDP socket)",
          ParseTransportKind, TransportKindToString, FIELD(transport)),
      Integer("wire_port", "transport=wire: UDP port", 1, FIELD(wire_port),
          65535),
      Real("wire_pace", "transport=wire: simulated s per wall-clock s",
          kPositive, FIELD(wire_pace)),
      Text("wire_frame_log", "transport=wire: append every frame here",
          FIELD(wire_frame_log)),
      Text("trace_out", "stream message events as JSONL to this path",
          FIELD(trace_path), "DUP_TRACE_OUT"),
      Text("trace_sample", "trace decimation: N or req,rep,push,ctl",
          FIELD(trace_sample), "DUP_TRACE_SAMPLE", CheckTraceSample),
      Choice("audit", "invariant audit: off|checkpoints|paranoid",
          audit::ParseAuditMode, audit::AuditModeToString, FIELD(audit_mode),
          "DUP_AUDIT"),
      Real("audit_interval", "audit checkpoint spacing, s (0 = one per TTL)",
          kNonNegative, FIELD(audit_interval), "DUP_AUDIT_INTERVAL"),
  };
}

#undef FIELD

Status CheckKind(ValueKind kind, std::string_view text) {
  double real = 0.0;
  int64_t count = 0;
  switch (kind) {
    case ValueKind::kText:
      return Status::OK();
    case ValueKind::kCount:
      return ParseInteger(text, 0, std::numeric_limits<int64_t>::max(),
                          &count);
    case ValueKind::kPositiveCount:
      return ParseInteger(text, 1, std::numeric_limits<int64_t>::max(),
                          &count);
    case ValueKind::kNonNegative:
      return ParseReal(text, kNonNegative, &real);
    case ValueKind::kPositive:
      return ParseReal(text, kPositive, &real);
  }
  return Status::Internal("unknown value kind");
}

/// One key a schema accepts: a tool key, or a table row it does not
/// shadow.
struct Accepted {
  std::string_view name;
  std::string_view env;
  const ToolKey* tool = nullptr;
  const ConfigKey* row = nullptr;

  Status Apply(std::string_view text, ExperimentConfig* config) const {
    return tool != nullptr ? CheckKind(tool->kind, text)
                           : row->set(text, config);
  }
};

std::vector<Accepted> AcceptedKeys(const KeySchema& schema) {
  std::vector<Accepted> keys;
  for (const ToolKey& tool : schema.tool_keys) {
    keys.push_back({tool.name, tool.env, &tool, nullptr});
  }
  for (std::string_view name : schema.config_keys) {
    const ConfigKey* row = FindConfigKey(name);
    if (row == nullptr) continue;
    bool shadowed = false;
    for (const ToolKey& tool : schema.tool_keys) {
      shadowed = shadowed || tool.name == name;
    }
    if (!shadowed) keys.push_back({row->name, row->env, nullptr, row});
  }
  return keys;
}

/// "  name  doc [current value]" per accepted key.
std::string Listing(const std::vector<Accepted>& keys,
                    const ExperimentConfig& config) {
  std::string out;
  for (const Accepted& key : keys) {
    std::string line;
    if (key.tool != nullptr) {
      line = util::StrFormat("  %-17s %s", std::string(key.name).c_str(),
                             std::string(key.tool->doc).c_str());
    } else {
      line = util::StrFormat("  %-17s %s [%s]", std::string(key.name).c_str(),
                             std::string(key.row->doc).c_str(),
                             key.row->Format(config).c_str());
    }
    if (!key.env.empty()) {
      line += util::StrFormat(" (env %s)", std::string(key.env).c_str());
    }
    if (!out.empty()) out += "\n";
    out += line;
  }
  return out;
}

}  // namespace

std::string ConfigKey::Format(const ExperimentConfig& config) const {
  const JsonValue value = get(config);
  return value.is_string() ? value.AsString() : value.Dump();
}

const std::vector<ConfigKey>& ConfigKeys() {
  static const std::vector<ConfigKey> table = BuildTable();
  return table;
}

const ConfigKey* FindConfigKey(std::string_view name) {
  for (const ConfigKey& key : ConfigKeys()) {
    if (key.name == name) return &key;
  }
  return nullptr;
}

std::vector<std::string_view> AllConfigKeys() {
  std::vector<std::string_view> names;
  for (const ConfigKey& key : ConfigKeys()) names.push_back(key.name);
  return names;
}

Status ResolveEnvAliases(const KeySchema& schema, util::ConfigMap* args) {
  for (const Accepted& key : AcceptedKeys(schema)) {
    if (key.env.empty() || args->Has(key.name)) continue;
    // An empty variable counts as unset, like an absent one.
    const char* value = std::getenv(std::string(key.env).c_str());
    if (value == nullptr || *value == '\0') continue;
    ExperimentConfig scratch;
    if (Status status = key.Apply(value, &scratch); !status.ok()) {
      return Status::InvalidArgument(util::StrFormat(
          "%s: %s=%s (alias of %s): %s", std::string(schema.owner).c_str(),
          std::string(key.env).c_str(), value,
          std::string(key.name).c_str(), status.message().c_str()));
    }
    args->Set(std::string(key.name), value);
  }
  return Status::OK();
}

Status ApplyKeys(const KeySchema& schema, const util::ConfigMap& args,
                 ExperimentConfig* config) {
  const std::vector<Accepted> keys = AcceptedKeys(schema);
  auto find = [&keys](std::string_view name) -> const Accepted* {
    for (const Accepted& key : keys) {
      if (key.name == name) return &key;
    }
    return nullptr;
  };
  // Reject stray keys before applying any, so the listing shows the
  // tool's defaults.
  for (const auto& [name, value] : args.entries()) {
    if (find(name) != nullptr) continue;
    return Status::InvalidArgument(util::StrFormat(
        "%s does not accept key \"%s\"; accepted keys:\n%s",
        std::string(schema.owner).c_str(), name.c_str(),
        Listing(keys, *config).c_str()));
  }
  for (const auto& [name, value] : args.entries()) {
    if (Status status = find(name)->Apply(value, config); !status.ok()) {
      return Status::InvalidArgument(util::StrFormat(
          "%s: %s=%s: %s", std::string(schema.owner).c_str(), name.c_str(),
          value.c_str(), status.message().c_str()));
    }
  }
  return Status::OK();
}

}  // namespace dupnet::experiment
