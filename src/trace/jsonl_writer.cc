#include "trace/jsonl_writer.h"

#include <utility>

#include "net/message.h"
#include "util/check.h"
#include "util/json.h"
#include "util/str.h"

namespace dupnet::trace {

std::string_view EventKindToString(EventKind kind) {
  switch (kind) {
    case EventKind::kSend:
      return "SEND";
    case EventKind::kDeliver:
      return "DELIVER";
    case EventKind::kDrop:
      return "DROP";
  }
  return "UNKNOWN";
}

namespace {

constexpr const char* kClassNames[metrics::kNumHopClasses] = {
    "request", "reply", "push", "control"};

util::Result<net::MessageType> ParseMessageType(std::string_view name) {
  using net::MessageType;
  for (const MessageType type :
       {MessageType::kRequest, MessageType::kReply, MessageType::kPush,
        MessageType::kSubscribe, MessageType::kUnsubscribe,
        MessageType::kSubstitute, MessageType::kInterestRegister,
        MessageType::kInterestDeregister, MessageType::kAck}) {
    if (name == net::MessageTypeToString(type)) return type;
  }
  return util::Status::InvalidArgument(
      util::StrFormat("unknown message type \"%s\"",
                      std::string(name).c_str()));
}

util::Result<EventKind> ParseEventKind(std::string_view name) {
  for (const EventKind kind :
       {EventKind::kSend, EventKind::kDeliver, EventKind::kDrop}) {
    if (name == EventKindToString(kind)) return kind;
  }
  return util::Status::InvalidArgument(
      util::StrFormat("unknown event kind \"%s\"",
                      std::string(name).c_str()));
}

}  // namespace

TraceSampling TraceSampling::Every(uint32_t n) {
  TraceSampling sampling;
  for (uint32_t& e : sampling.every) e = n;
  return sampling;
}

util::Result<TraceSampling> TraceSampling::Parse(std::string_view text) {
  const std::vector<std::string> parts = util::StrSplit(text, ',');
  auto parse_one = [](std::string_view part, uint32_t* out) {
    int64_t value = 0;
    if (!util::ParseInt64(util::StripWhitespace(part), &value) || value < 0 ||
        value > UINT32_MAX) {
      return false;
    }
    *out = static_cast<uint32_t>(value);
    return true;
  };
  TraceSampling sampling;
  if (parts.size() == 1) {
    uint32_t n = 0;
    if (!parse_one(parts[0], &n)) {
      return util::Status::InvalidArgument(
          util::StrFormat("bad trace sampling \"%s\"",
                          std::string(text).c_str()));
    }
    return Every(n);
  }
  if (parts.size() != metrics::kNumHopClasses) {
    return util::Status::InvalidArgument(
        "trace sampling needs 1 or 4 comma-separated values "
        "(request,reply,push,control)");
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!parse_one(parts[i], &sampling.every[i])) {
      return util::Status::InvalidArgument(
          util::StrFormat("bad trace sampling \"%s\"",
                          std::string(text).c_str()));
    }
  }
  return sampling;
}

std::string TraceSampling::ToString() const {
  return util::StrFormat("%u,%u,%u,%u", every[0], every[1], every[2],
                         every[3]);
}

util::Result<std::unique_ptr<JsonlTraceWriter>> JsonlTraceWriter::Open(
    const std::string& path, TraceSampling sampling) {
  std::FILE* stream = std::fopen(path.c_str(), "w");
  if (stream == nullptr) {
    return util::Status::Unavailable(
        util::StrFormat("cannot open trace file \"%s\"", path.c_str()));
  }
  return std::make_unique<JsonlTraceWriter>(stream, sampling,
                                            /*owns_stream=*/true);
}

JsonlTraceWriter::JsonlTraceWriter(std::FILE* stream, TraceSampling sampling,
                                   bool owns_stream)
    : stream_(stream), owns_stream_(owns_stream), sampling_(sampling) {
  DUP_CHECK(stream != nullptr);
}

JsonlTraceWriter::~JsonlTraceWriter() {
  Finish();
  if (owns_stream_) std::fclose(stream_);
}

void JsonlTraceWriter::OnSend(sim::SimTime time, const net::Message& message) {
  Record(time, EventKind::kSend, message);
}

void JsonlTraceWriter::OnDeliver(sim::SimTime time,
                                 const net::Message& message) {
  Record(time, EventKind::kDeliver, message);
}

void JsonlTraceWriter::OnDrop(sim::SimTime time, const net::Message& message) {
  Record(time, EventKind::kDrop, message);
}

void JsonlTraceWriter::Record(sim::SimTime time, EventKind kind,
                              const net::Message& message) {
  const int hop_class = static_cast<int>(net::HopClassOf(message.type));
  const uint64_t seen = ++seen_[hop_class];
  ++seen_total_;
  const uint32_t every = sampling_.every[hop_class];
  if (every == 0 || (seen - 1) % every != 0) return;
  ++written_[hop_class];
  ++written_total_;
  const std::string line = FormatLine(time, kind, message);
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fputc('\n', stream_);
}

void JsonlTraceWriter::WriteCommentLine(std::string_view tag,
                                        std::string_view json) {
  DUP_CHECK(!finished_);
  std::fputc('#', stream_);
  std::fwrite(tag.data(), 1, tag.size(), stream_);
  std::fputc(' ', stream_);
  std::fwrite(json.data(), 1, json.size(), stream_);
  std::fputc('\n', stream_);
}

void JsonlTraceWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  std::string trailer = "#trace";
  for (int c = 0; c < metrics::kNumHopClasses; ++c) {
    trailer += util::StrFormat(
        " %s=%llu/%llu", kClassNames[c],
        static_cast<unsigned long long>(written_[c]),
        static_cast<unsigned long long>(seen_[c]));
  }
  trailer += util::StrFormat(" sample=%s\n", sampling_.ToString().c_str());
  std::fwrite(trailer.data(), 1, trailer.size(), stream_);
  std::fflush(stream_);
}

std::string JsonlTraceWriter::FormatLine(sim::SimTime time, EventKind kind,
                                         const net::Message& message) {
  // Hand-rolled for the hot path: one line, fixed field order, no JsonValue
  // tree. ParseLine() round-trips it through the real JSON parser.
  return util::StrFormat(
      "{\"t\":%.6f,\"kind\":\"%s\",\"type\":\"%s\",\"from\":%u,\"to\":%u,"
      "\"subject\":%u,\"v\":%llu,\"hops\":%u}",
      time, std::string(EventKindToString(kind)).c_str(),
      std::string(net::MessageTypeToString(message.type)).c_str(),
      message.from, message.to, message.subject,
      static_cast<unsigned long long>(message.version), message.hops);
}

util::Result<TraceEvent> JsonlTraceWriter::ParseLine(std::string_view line) {
  const std::string_view stripped = util::StripWhitespace(line);
  if (stripped.empty() || stripped[0] == '#') {
    return util::Status::NotFound("not a trace event line");
  }
  auto json = util::JsonValue::Parse(stripped);
  DUP_RETURN_IF_ERROR(json.status());

  TraceEvent event;
  const util::JsonValue* field = json->Find("t");
  if (field == nullptr || !field->is_number()) {
    return util::Status::InvalidArgument("trace line is missing \"t\"");
  }
  event.time = field->AsDouble();

  field = json->Find("kind");
  if (field == nullptr || !field->is_string()) {
    return util::Status::InvalidArgument("trace line is missing \"kind\"");
  }
  auto kind = ParseEventKind(field->AsString());
  DUP_RETURN_IF_ERROR(kind.status());
  event.kind = *kind;

  field = json->Find("type");
  if (field == nullptr || !field->is_string()) {
    return util::Status::InvalidArgument("trace line is missing \"type\"");
  }
  auto type = ParseMessageType(field->AsString());
  DUP_RETURN_IF_ERROR(type.status());
  event.type = *type;

  const util::JsonValue* from = json->Find("from");
  const util::JsonValue* to = json->Find("to");
  const util::JsonValue* subject = json->Find("subject");
  const util::JsonValue* version = json->Find("v");
  const util::JsonValue* hops = json->Find("hops");
  for (const util::JsonValue* f : {from, to, subject, version, hops}) {
    if (f == nullptr || !f->is_number()) {
      return util::Status::InvalidArgument("trace line is missing a field");
    }
  }
  event.from = static_cast<NodeId>(from->AsDouble());
  event.to = static_cast<NodeId>(to->AsDouble());
  event.subject = static_cast<NodeId>(subject->AsDouble());
  event.version = static_cast<IndexVersion>(version->AsDouble());
  event.hops = static_cast<uint32_t>(hops->AsDouble());
  return event;
}

}  // namespace dupnet::trace
