// Measurement helpers of the perfbench harness: percentile selection, the
// wire ladder's max-rate rule and the send/delivery frame matcher. Header
// only so that perfbench_tests can exercise them without the simulator.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/message.h"

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
/// Sorts `samples` in place.
inline double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples->size());
  return (*samples)[rank - 1];
}

/// The percentiles a tail is reported at, highest first.
inline constexpr double kTailPercentiles[] = {99.99, 99.9, 99.0, 95.0, 90.0,
                                              75.0,  50.0};

/// The highest of kTailPercentiles that leaves at least 10 samples strictly
/// beyond its nearest rank, or 0 when even the median does not (fewer than
/// 20 samples). A tail quoted above this percentile would rest on a handful
/// of samples.
inline double HighestSupportedPercentile(size_t n) {
  for (double p : kTailPercentiles) {
    // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n - rank >= 10) return p;
  }
  return 0.0;
}

/// One rung of the wire workload's offered-rate ladder.
struct Rung {
  double lambda = 0.0;         ///< Offered query rate (simulated q/s).
  double frames_per_s = 0.0;   ///< Frames shipped per wall second.
  uint64_t frames_lost = 0;    ///< Shipped minus received.
  uint64_t frames_rejected = 0;
  bool audit_clean = false;
  double p99_us = 0.0;         ///< Frame latency p99 at this rung.
  bool completed = false;      ///< The paced run itself returned OK.

  bool Meets(double p99_limit_us) const {
    return completed && frames_lost == 0 && frames_rejected == 0 &&
           audit_clean && p99_us <= p99_limit_us;
  }
};

/// The ladder's max-rate rule: the frames/s of the highest rung such that it
/// and every rung below it ship without loss or rejection, pass the audit
/// and keep p99 within `p99_limit_us`. A rung that passes above a failed
/// one does not count — the rate must be sustainable from below. Rungs must
/// be sorted by ascending lambda. 0 when the first rung already fails.
inline double MaxSustainedFramesPerSecond(const std::vector<Rung>& rungs,
                                          double p99_limit_us) {
  double best = 0.0;
  for (const Rung& rung : rungs) {
    if (!rung.Meets(p99_limit_us)) break;
    best = rung.frames_per_s;
  }
  return best;
}

/// Pairs each frame's delivery with its send to time it, from outside the
/// network (a net::MessageObserver feeds it).
///
/// Frames carrying a reliable sequence number are keyed by (seq, is-ack):
/// a retransmission keeps the first send's time, so a frame recovered by a
/// retry is charged the whole wait, and a second delivery of an already
/// matched sequence is a duplicate. Every other frame is matched within its
/// (from, to) pair against the oldest pending send of identical content,
/// so a lost frame never shifts the pairing of the frames behind it (the
/// failure of plain per-pair FIFO matching). Sends left unmatched past
/// `Expire`'s age are counted lost.
class FrameMatcher {
 public:
  void OnSend(const dupnet::net::Message& m, int64_t now_ns) {
    if (m.seq != 0) {
      // A retransmission keeps the first send's time.
      if (reliable_.emplace(ReliableKey(m), now_ns).second) ++pending_;
    } else {
      pairs_[PairKey(m)].push_back({ContentHash(m), now_ns});
      ++pending_;
    }
  }

  /// Latency in ns of the delivered frame, or nullopt for a delivery that
  /// matches no pending send (a duplicate, or a send that was not sampled).
  std::optional<int64_t> OnDeliver(const dupnet::net::Message& m,
                                   int64_t now_ns) {
    std::optional<int64_t> sent = Take(m);
    if (!sent) {
      ++unmatched_;
      return std::nullopt;
    }
    return now_ns - *sent;
  }

  /// A frame the network reports dropped: forget its send.
  void OnDrop(const dupnet::net::Message& m) {
    if (Take(m)) ++dropped_;
  }

  /// Counts sends older than `max_age_ns` as lost and forgets them.
  void Expire(int64_t now_ns, int64_t max_age_ns) {
    for (auto it = reliable_.begin(); it != reliable_.end();) {
      if (now_ns - it->second > max_age_ns) {
        it = reliable_.erase(it);
        ++expired_;
        --pending_;
      } else {
        ++it;
      }
    }
    for (auto it = pairs_.begin(); it != pairs_.end();) {
      auto& queue = it->second;
      while (!queue.empty() && now_ns - queue.front().sent_ns > max_age_ns) {
        queue.pop_front();
        ++expired_;
        --pending_;
      }
      it = queue.empty() ? pairs_.erase(it) : std::next(it);
    }
  }

  uint64_t pending() const { return pending_; }
  uint64_t unmatched() const { return unmatched_; }
  uint64_t expired() const { return expired_; }
  uint64_t dropped() const { return dropped_; }

  /// FNV-1a over every wire-visible field except the reliable sequence.
  static uint64_t ContentHash(const dupnet::net::Message& m) {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const void* data, size_t size) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      for (size_t i = 0; i < size; ++i) {
        h = (h ^ bytes[i]) * 1099511628211ULL;
      }
    };
    const uint8_t flags = static_cast<uint8_t>((m.stale ? 1 : 0) |
                                               (m.free_ride ? 2 : 0));
    uint64_t expiry_bits = 0;
    std::memcpy(&expiry_bits, &m.expiry, sizeof(expiry_bits));
    mix(&m.type, sizeof(m.type));
    mix(&flags, sizeof(flags));
    mix(&m.origin, sizeof(m.origin));
    mix(&m.hops, sizeof(m.hops));
    mix(&m.version, sizeof(m.version));
    mix(&expiry_bits, sizeof(expiry_bits));
    mix(&m.subject, sizeof(m.subject));
    mix(&m.subject2, sizeof(m.subject2));
    if (!m.route.empty()) {
      mix(m.route.data(), m.route.size() * sizeof(m.route[0]));
    }
    return h;
  }

 private:
  struct Sent {
    uint64_t hash;
    int64_t sent_ns;
  };

  static std::pair<uint64_t, bool> ReliableKey(const dupnet::net::Message& m) {
    return {m.seq, m.type == dupnet::net::MessageType::kAck};
  }
  static uint64_t PairKey(const dupnet::net::Message& m) {
    return (static_cast<uint64_t>(m.from) << 32) | m.to;
  }

  std::optional<int64_t> Take(const dupnet::net::Message& m) {
    if (m.seq != 0) {
      auto it = reliable_.find(ReliableKey(m));
      if (it == reliable_.end()) return std::nullopt;
      const int64_t sent = it->second;
      reliable_.erase(it);
      --pending_;
      return sent;
    }
    auto pair = pairs_.find(PairKey(m));
    if (pair == pairs_.end()) return std::nullopt;
    const uint64_t hash = ContentHash(m);
    auto& queue = pair->second;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->hash != hash) continue;
      const int64_t sent = it->sent_ns;
      queue.erase(it);
      if (queue.empty()) pairs_.erase(pair);
      --pending_;
      return sent;
    }
    return std::nullopt;
  }

  std::map<std::pair<uint64_t, bool>, int64_t> reliable_;
  std::map<uint64_t, std::deque<Sent>> pairs_;
  uint64_t pending_ = 0;
  uint64_t unmatched_ = 0;
  uint64_t expired_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
