// Ablation (ours): quantifies the paper's Related Work comparison
// (Section V) — DUP vs SCRIBE-style multicast vs Bayeux-style rendezvous
// dissemination — on the same overlay, measuring join traffic, push
// traffic, and the largest per-node state table.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "dissem/bayeux.h"
#include "dissem/dup_backend.h"
#include "dissem/scribe.h"
#include "metrics/recorder.h"
#include "net/overlay_network.h"
#include "sim/engine.h"
#include "topo/tree_generator.h"
#include "util/check.h"
#include "util/str.h"

namespace {

using namespace dupnet;

struct Measurement {
  uint64_t join_hops = 0;
  uint64_t push_hops_per_publish = 0;
  size_t max_state = 0;
  size_t delivered = 0;
};

template <typename Protocol>
Measurement Measure(size_t num_nodes, size_t subscribers, uint64_t seed) {
  util::Rng rng(seed);
  topo::TreeGeneratorOptions gen;
  gen.num_nodes = num_nodes;
  auto tree = topo::TreeGenerator::Generate(gen, &rng);
  DUP_CHECK(tree.ok());

  sim::Engine engine;
  metrics::Recorder recorder;
  net::OverlayNetwork network(&engine, &rng, &recorder);
  Protocol protocol(&network, &*tree);
  network.set_sink(&protocol);

  size_t delivered = 0;
  protocol.set_delivery_callback(
      [&delivered](NodeId, IndexVersion) { ++delivered; });

  // Random distinct subscribers (excluding the root for comparability).
  std::vector<NodeId> nodes;
  for (NodeId n = 1; n < num_nodes; ++n) nodes.push_back(n);
  rng.Shuffle(&nodes);
  nodes.resize(subscribers);

  Measurement m;
  for (NodeId n : nodes) protocol.Subscribe(n);
  engine.Run();
  m.join_hops = recorder.hops().control();

  const uint64_t before = recorder.hops().push();
  protocol.Publish(1, engine.Now() + 3600.0);
  engine.Run();
  m.push_hops_per_publish = recorder.hops().push() - before;
  m.max_state = protocol.MaxNodeState();
  m.delivered = delivered;
  return m;
}

}  // namespace

int main() {
  using namespace dupnet;
  using namespace dupnet::bench;

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader(
      "Related-work comparison — DUP vs SCRIBE vs Bayeux dissemination",
      settings);

  const size_t num_nodes = 4096;
  const std::vector<size_t> group_sizes = {16, 64, 256, 1024};
  // D + 1: a tree node's children plus the node itself.
  const size_t kStateBound =
      static_cast<size_t>(topo::TreeGeneratorOptions().max_degree) + 1;

  experiment::TableReport table(
      "explicit-membership dissemination on a 4096-node overlay",
      {"group size", "scheme", "join control hops", "push hops/publish",
       "max node state", "nodes receiving"});
  // "nodes receiving" counts every node the data lands on: for SCRIBE and
  // Bayeux that is exactly the subscriber set; DUP's branch points receive
  // (and cache) the index too while still skipping pure relays.
  for (size_t group : group_sizes) {
    const Measurement scribe =
        Measure<dissem::ScribeDissemination>(num_nodes, group, 42);
    const Measurement bayeux =
        Measure<dissem::BayeuxDissemination>(num_nodes, group, 42);
    const Measurement dup =
        Measure<dissem::DupDissemination>(num_nodes, group, 42);
    auto row = [&](const char* name, const Measurement& m) {
      table.AddRow({util::StrFormat("%zu", group), name,
                    util::StrFormat("%llu",
                                    static_cast<unsigned long long>(
                                        m.join_hops)),
                    util::StrFormat("%llu",
                                    static_cast<unsigned long long>(
                                        m.push_hops_per_publish)),
                    util::StrFormat("%zu", m.max_state),
                    util::StrFormat("%zu", m.delivered)});
    };
    row("SCRIBE", scribe);
    row("Bayeux", bayeux);
    row("DUP", dup);
    table.AddSeparator();

    // --- The exhibit's claims, hard-asserted ----------------------------
    DUP_CHECK(scribe.push_hops_per_publish > dup.push_hops_per_publish &&
              dup.push_hops_per_publish > bayeux.push_hops_per_publish)
        << "group " << group << ": push hops SCRIBE "
        << scribe.push_hops_per_publish << ", DUP "
        << dup.push_hops_per_publish << ", Bayeux "
        << bayeux.push_hops_per_publish << " (want SCRIBE > DUP > Bayeux)";
    DUP_CHECK(scribe.max_state <= kStateBound && dup.max_state <= kStateBound)
        << "group " << group << ": max node state SCRIBE "
        << scribe.max_state << ", DUP " << dup.max_state << " above D + 1 = "
        << kStateBound;
    DUP_CHECK_EQ(bayeux.max_state, group) << "Bayeux root state";
    DUP_CHECK_EQ(scribe.delivered, group) << "SCRIBE receivers";
    DUP_CHECK_EQ(bayeux.delivered, group) << "Bayeux receivers";
    DUP_CHECK_GE(dup.delivered, group) << "DUP receivers";
  }
  table.Print();
  MaybeWriteCsv(table, "ablation_dissemination");
  PrintExpectation(
      "Section V, asserted at every group size: push hops per "
      "publish order SCRIBE > DUP > Bayeux, because SCRIBE forwards "
      "hop-by-hop through every intermediate node while Bayeux pushes "
      "directly from the root; SCRIBE and DUP keep every node's state "
      "within D + 1 while the Bayeux root holds the whole group; SCRIBE "
      "and Bayeux reach exactly the group, and DUP reaches the group plus "
      "the branch points that cache the index — the balanced middle the "
      "paper argues for.");
  return 0;
}
