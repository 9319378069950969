#ifndef DUP_TRACE_JSONL_WRITER_H_
#define DUP_TRACE_JSONL_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "metrics/recorder.h"
#include "net/overlay_network.h"
#include "util/status.h"

namespace dupnet::trace {

/// What happened to a message.
enum class EventKind : uint8_t {
  kSend,     ///< Handed to the overlay.
  kDeliver,  ///< Arrived at its destination.
  kDrop,     ///< Lost in flight: down endpoint, random loss (FaultConfig
             ///< loss_rate), or a test LossFilter.
};

std::string_view EventKindToString(EventKind kind);

/// One traced message event (a compact copy of the interesting fields; the
/// request/reply route vector is summarised by its length).
struct TraceEvent {
  sim::SimTime time = 0.0;
  EventKind kind = EventKind::kSend;
  net::MessageType type = net::MessageType::kRequest;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  NodeId subject = kInvalidNode;
  IndexVersion version = 0;
  uint32_t hops = 0;
};

/// Deterministic per-message-class sampling policy for streamed traces.
/// `every[c]` keeps the 1st, (1+every)-th, (1+2*every)-th … event of hop
/// class `c`; 1 keeps everything, 0 drops the class entirely. Sampling is
/// pure counting — the trace path performs no RNG draws, so an attached
/// writer can never perturb a run's RunMetrics.
struct TraceSampling {
  uint32_t every[metrics::kNumHopClasses] = {1, 1, 1, 1};

  /// Uniform policy: the same decimation for every class.
  static TraceSampling Every(uint32_t n);

  /// Parses "N" (uniform) or "req,rep,push,ctl" (per class).
  static util::Result<TraceSampling> Parse(std::string_view text);

  std::string ToString() const;
};

/// The message tracer: a net::MessageObserver that appends one compact
/// JSON object per observed send/deliver/drop to a file, so a run's message
/// history survives the process and can be inspected, grepped, or replayed
/// offline:
///
///   {"t":12.5,"kind":"DELIVER","type":"Push","from":0,"to":6,
///    "subject":4294967295,"v":3,"hops":1}
///
/// It never evicts, so full-scale runs should decimate via TraceSampling
/// (the `trace_sample` knob); the per-class `seen` totals are appended as a
/// trailer comment line ("#trace ..."), letting consumers recover true
/// counts from a sampled file.
class JsonlTraceWriter : public net::MessageObserver {
 public:
  /// Opens (truncates) `path`. The writer owns the stream.
  static util::Result<std::unique_ptr<JsonlTraceWriter>> Open(
      const std::string& path, TraceSampling sampling = TraceSampling());

  /// Adopts an already-open stream (tests); closes it iff `owns_stream`.
  JsonlTraceWriter(std::FILE* stream, TraceSampling sampling,
                   bool owns_stream);
  ~JsonlTraceWriter() override;

  JsonlTraceWriter(const JsonlTraceWriter&) = delete;
  JsonlTraceWriter& operator=(const JsonlTraceWriter&) = delete;

  void OnSend(sim::SimTime time, const net::Message& message) override;
  void OnDeliver(sim::SimTime time, const net::Message& message) override;
  void OnDrop(sim::SimTime time, const net::Message& message) override;

  /// Writes the "#trace" trailer with per-class seen/written totals and
  /// flushes. Called automatically by the destructor (once).
  void Finish();

  /// Appends a "#<tag> <json>" comment line, immune to sampling. ParseLine
  /// rejects '#' lines with NotFound, so existing scanners skip these; the
  /// invariant auditor uses tag "audit" to stream structured violation
  /// diagnostics into the run's trace file.
  void WriteCommentLine(std::string_view tag, std::string_view json);

  uint64_t events_seen() const { return seen_total_; }
  uint64_t events_written() const { return written_total_; }

  /// Serialises one event as the compact JSONL line (no newline).
  static std::string FormatLine(sim::SimTime time, EventKind kind,
                                const net::Message& message);

  /// Parses a line produced by FormatLine back into a TraceEvent.
  /// Trailer/comment lines (leading '#') and blank lines are rejected with
  /// NotFound so scanners can skip them.
  static util::Result<TraceEvent> ParseLine(std::string_view line);

 private:
  void Record(sim::SimTime time, EventKind kind, const net::Message& message);

  std::FILE* stream_;
  bool owns_stream_;
  bool finished_ = false;
  TraceSampling sampling_;
  uint64_t seen_[metrics::kNumHopClasses] = {0, 0, 0, 0};
  uint64_t written_[metrics::kNumHopClasses] = {0, 0, 0, 0};
  uint64_t seen_total_ = 0;
  uint64_t written_total_ = 0;
};

}  // namespace dupnet::trace

#endif  // DUP_TRACE_JSONL_WRITER_H_
