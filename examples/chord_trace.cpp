// Builds a real Chord ring, traces lookups toward a key, and shows how the
// union of lookup paths forms the index search tree that DUP runs on.
//
//   ./chord_trace nodes=64 key=my-file.mp3 trace=5

#include <cstdio>
#include <string>

#include "chord/ring.h"
#include "chord/sha1.h"
#include "chord/tree_builder.h"
#include "util/check.h"
#include "util/config.h"

int main(int argc, char** argv) {
  using namespace dupnet;

  auto args = util::ConfigMap::FromArgs(argc, argv);
  DUP_CHECK(args.ok()) << args.status().ToString();
  const size_t n = static_cast<size_t>(args->GetInt("nodes", 64));
  const std::string key = args->GetString("key", "my-file.mp3");
  const size_t traces = static_cast<size_t>(args->GetInt("trace", 5));

  auto ring = chord::ChordRing::Create(n);
  DUP_CHECK(ring.ok()) << ring.status().ToString();

  const chord::ChordId key_id = chord::Sha1Hash64(key);
  const NodeId authority = ring->SuccessorOfKey(key_id);
  std::printf("key \"%s\" hashes to %016llx; authority node: %u (id %016llx)\n",
              key.c_str(), static_cast<unsigned long long>(key_id), authority,
              static_cast<unsigned long long>(ring->IdOf(authority)));

  std::printf("\nsample lookups (iterative greedy finger routing):\n");
  for (size_t i = 0; i < traces && i < n; ++i) {
    const NodeId from = static_cast<NodeId>(i * (n / (traces + 1) + 1) % n);
    auto path = ring->LookupPath(from, key_id);
    DUP_CHECK(path.ok()) << path.status().ToString();
    std::printf("  node %4u:", from);
    for (NodeId hop : *path) std::printf(" -> %u", hop);
    std::printf("  (%zu hops)\n", path->size() - 1);
  }

  auto tree = chord::ChordTreeBuilder::Build(*ring, key_id);
  DUP_CHECK(tree.ok()) << tree.status().ToString();
  DUP_CHECK_OK(tree->Validate());
  std::printf(
      "\nindex search tree derived from the ring: %zu nodes, root %u,\n"
      "max depth %u, average depth %.2f (O(log n) as Chord promises).\n",
      tree->size(), tree->root(), tree->MaxDepth(), tree->AverageDepth());

  // Show the root's immediate neighbourhood of the tree.
  std::printf("\nauthority's direct children in the index search tree:");
  for (NodeId child : tree->Children(tree->root())) {
    std::printf(" %u", child);
  }
  std::printf("\n");

  return 0;
}
