#include "core/subscriber_list.h"

#include <algorithm>

#include "util/check.h"

namespace dupnet::core {

bool SubscriberList::Set(NodeId branch, NodeId subscriber,
                         sim::SimTime announced) {
  for (Entry& entry : entries_) {
    if (entry.branch == branch) {
      entry.subscriber = subscriber;
      entry.announced = announced;
      return false;
    }
  }
  entries_.push_back({branch, subscriber, announced});
  return true;
}

bool SubscriberList::Remove(NodeId branch) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.branch == branch; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

sim::SimTime SubscriberList::AnnouncedAt(NodeId branch) const {
  for (const Entry& entry : entries_) {
    if (entry.branch == branch) return entry.announced;
  }
  return 0.0;
}

bool SubscriberList::HasBranch(NodeId branch) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.branch == branch; });
}

std::optional<NodeId> SubscriberList::Get(NodeId branch) const {
  for (const Entry& entry : entries_) {
    if (entry.branch == branch) return entry.subscriber;
  }
  return std::nullopt;
}

std::pair<NodeId, NodeId> SubscriberList::Sole() const {
  DUP_CHECK_EQ(entries_.size(), 1u);
  return {entries_.front().branch, entries_.front().subscriber};
}

bool SubscriberList::ContainsSubscriber(NodeId subscriber) const {
  return std::any_of(
      entries_.begin(), entries_.end(),
      [&](const Entry& e) { return e.subscriber == subscriber; });
}

std::vector<NodeId> SubscriberList::SubscribersSorted(NodeId exclude) const {
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (entry.subscriber == exclude) continue;
    out.push_back(entry.subscriber);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dupnet::core
