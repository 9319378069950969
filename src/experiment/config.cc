#include "experiment/config.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "experiment/config_keys.h"
#include "trace/jsonl_writer.h"
#include "util/str.h"

namespace dupnet::experiment {

using util::Result;
using util::Status;

namespace {

/// One spelling of an enum value. Each table lists the canonical spelling
/// of a value before its aliases.
template <typename E>
struct Spelling {
  std::string_view name;
  E value;
};

template <typename E, size_t N>
std::string_view NameOf(const Spelling<E> (&spellings)[N], E value) {
  for (const Spelling<E>& s : spellings) {
    if (s.value == value) return s.name;
  }
  return "unknown";
}

template <typename E, size_t N>
Result<E> Lookup(const Spelling<E> (&spellings)[N], const char* what,
                 std::string_view name) {
  std::string canonical;  // The accepted values, aliases left out.
  for (const Spelling<E>& s : spellings) {
    if (s.name == name) return s.value;
    if (NameOf(spellings, s.value) != s.name) continue;
    if (!canonical.empty()) canonical += '|';
    canonical += s.name;
  }
  return Status::InvalidArgument(
      util::StrFormat("unknown %s \"%s\" (expected %s)", what,
                      std::string(name).c_str(), canonical.c_str()));
}

constexpr Spelling<Scheme> kSchemes[] = {{"pcx", Scheme::kPcx},
                                         {"cup", Scheme::kCup},
                                         {"dup", Scheme::kDup},
                                         {"adaptive", Scheme::kAdaptive}};
constexpr Spelling<TopologyKind> kTopologies[] = {
    {"random-tree", TopologyKind::kRandomTree},
    {"tree", TopologyKind::kRandomTree},
    {"chord", TopologyKind::kChord}};
constexpr Spelling<TransportKind> kTransports[] = {
    {"sim", TransportKind::kSim},
    {"wire", TransportKind::kWire},
    {"udp", TransportKind::kWire}};
constexpr Spelling<UpdateMode> kUpdateModes[] = {
    {"ttl-aligned", UpdateMode::kTtlAligned},
    {"ttl", UpdateMode::kTtlAligned},
    {"host-driven", UpdateMode::kHostDriven},
    {"host", UpdateMode::kHostDriven}};
constexpr Spelling<ArrivalKind> kArrivals[] = {
    {"exponential", ArrivalKind::kExponential},
    {"exp", ArrivalKind::kExponential},
    {"pareto", ArrivalKind::kPareto}};
constexpr Spelling<sim::SchedulerKind> kSchedulers[] = {
    {"heap", sim::SchedulerKind::kHeap},
    {"calendar", sim::SchedulerKind::kCalendar}};

}  // namespace

std::string_view SchemeToString(Scheme scheme) {
  return NameOf(kSchemes, scheme);
}
Result<Scheme> ParseScheme(std::string_view name) {
  return Lookup(kSchemes, "scheme", name);
}

std::string_view TopologyToString(TopologyKind kind) {
  return NameOf(kTopologies, kind);
}
Result<TopologyKind> ParseTopology(std::string_view name) {
  return Lookup(kTopologies, "topology", name);
}

std::string_view TransportKindToString(TransportKind kind) {
  return NameOf(kTransports, kind);
}
Result<TransportKind> ParseTransportKind(std::string_view name) {
  return Lookup(kTransports, "transport", name);
}

std::string_view UpdateModeToString(UpdateMode mode) {
  return NameOf(kUpdateModes, mode);
}
Result<UpdateMode> ParseUpdateMode(std::string_view name) {
  return Lookup(kUpdateModes, "update mode", name);
}

std::string_view ArrivalToString(ArrivalKind kind) {
  return NameOf(kArrivals, kind);
}
Result<ArrivalKind> ParseArrival(std::string_view name) {
  return Lookup(kArrivals, "arrival", name);
}

std::string_view SchedulerToString(sim::SchedulerKind kind) {
  return NameOf(kSchedulers, kind);
}
Result<sim::SchedulerKind> ParseScheduler(std::string_view name) {
  return Lookup(kSchedulers, "scheduler", name);
}

Status ExperimentConfig::Validate() const {
  if (num_nodes < 2) {
    return Status::InvalidArgument("num_nodes must be at least 2");
  }
  if (max_degree < 1) {
    return Status::InvalidArgument("max_degree must be at least 1");
  }
  if (lambda <= 0.0) {
    return Status::InvalidArgument("lambda must be positive");
  }
  if (arrival == ArrivalKind::kPareto &&
      (pareto_alpha <= 1.0 || pareto_alpha >= 2.0)) {
    return Status::InvalidArgument("pareto_alpha must be in (1, 2)");
  }
  if (zipf_theta < 0.0) {
    return Status::InvalidArgument("zipf_theta must be non-negative");
  }
  if (ttl <= 0.0) {
    return Status::InvalidArgument("ttl must be positive");
  }
  if (push_lead < 0.0 || push_lead >= ttl) {
    return Status::InvalidArgument("push_lead must be in [0, ttl)");
  }
  if (update_mode == UpdateMode::kHostDriven && host_change_rate <= 0.0) {
    return Status::InvalidArgument("host_change_rate must be positive");
  }
  if (hop_latency_mean <= 0.0) {
    return Status::InvalidArgument("hop_latency_mean must be positive");
  }
  if (warmup_time < 0.0 || measure_time <= 0.0) {
    return Status::InvalidArgument("invalid warmup/measure horizon");
  }
  if (churn.detect_delay < 0.0) {
    return Status::InvalidArgument("detect_delay must be non-negative");
  }
  if (Status faults_status = faults.Validate(); !faults_status.ok()) {
    return faults_status;
  }
  if (auto sampling = trace::TraceSampling::Parse(trace_sample);
      !sampling.ok()) {
    return sampling.status();
  }
  if (audit_interval < 0.0) {
    return Status::InvalidArgument("audit_interval must be non-negative");
  }
  if (transport == TransportKind::kWire) {
    if (wire_port < 1 || wire_port > 65535) {
      return Status::InvalidArgument("wire_port must be in [1, 65535]");
    }
    if (!std::isfinite(wire_pace) || wire_pace <= 0.0) {
      return Status::InvalidArgument("wire_pace must be finite and positive");
    }
  }
  for (size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].lambda_scale <= 0.0) {
      return Status::InvalidArgument("phase lambda_scale must be positive");
    }
    if (phases[i].at < 0.0) {
      return Status::InvalidArgument("phase time must be non-negative");
    }
    if (i > 0 && phases[i].at <= phases[i - 1].at) {
      return Status::InvalidArgument("phase times must be strictly ascending");
    }
  }
  if (scheme == Scheme::kAdaptive) {
    if (adaptive.demand_window <= 0.0 ||
        adaptive.cup_enter_per_update <= 0.0 ||
        adaptive.dup_enter_per_update < adaptive.cup_enter_per_update ||
        adaptive.exit_fraction <= 0.0 || adaptive.exit_fraction >= 1.0) {
      return Status::InvalidArgument("invalid adaptive controller options");
    }
  }
  return Status::OK();
}

std::string ExperimentConfig::ToString() const {
  // Table I's parameters always, any other key only off its default, all
  // as replayable key=value pairs.
  static constexpr std::string_view kAlways[] = {
      "scheme", "topology", "nodes", "degree", "lambda", "arrival", "theta",
      "c",      "ttl",      "lead",  "warmup", "measure", "seed"};
  const ExperimentConfig defaults;
  std::string out;
  for (const ConfigKey& key : ConfigKeys()) {
    const std::string value = key.Format(*this);
    if (std::find(std::begin(kAlways), std::end(kAlways), key.name) ==
            std::end(kAlways) &&
        value == key.Format(defaults)) {
      continue;
    }
    if (!out.empty()) out += ' ';
    out += std::string(key.name) + "=" + value;
  }
  if (!phases.empty()) out += util::StrFormat(" phases=%zu", phases.size());
  return out;
}

}  // namespace dupnet::experiment
