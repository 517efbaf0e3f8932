// pnr::fed tests (docs/FEDERATION.md): the shard state machine's lifecycle
// guards, coordinator equivalence against the fed-free single-process
// session over real loopback servers, hostile migration payloads answered
// with typed errors on live sessions, checkpoint/restore of federated
// shard sessions, the quiesce-before-shutdown teardown ordering, and the
// subtree codec (pack_subtree / verify_subtree) in both dimensions.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fed/coordinator.hpp"
#include "fed/migrate.hpp"
#include "fed/shard.hpp"
#include "svc/loopback.hpp"
#include "svc/server.hpp"
#include "util/fnv.hpp"

namespace pnr::fed {
namespace {

constexpr engine::Kind kEngine = engine::Kind::kMlkl;

svc::WorkloadSpec small_spec2d(int parts) {
  svc::WorkloadSpec spec;
  spec.kind = svc::WorkloadKind::kTransient2D;
  spec.strategy = pared::Strategy::kPNR;
  spec.parts = parts;
  spec.session_seed = 1;
  spec.transient.steps = 5;
  spec.transient.grid_n = 6;
  spec.transient.max_level = 3;
  spec.engine = static_cast<std::uint8_t>(kEngine);
  return spec;
}

svc::WorkloadSpec small_spec3d(int parts) {
  svc::WorkloadSpec spec;
  spec.kind = svc::WorkloadKind::kTransient3D;
  spec.strategy = pared::Strategy::kPNR;
  spec.parts = parts;
  spec.session_seed = 1;
  spec.transient = pared::TransientRun3D::default_options();
  spec.transient.steps = 3;
  spec.engine = static_cast<std::uint8_t>(kEngine);
  return spec;
}

/// The fed-free baseline: the identical run and session stepped directly,
/// chaining the same (assign_fp, mesh_fp) digest the coordinator chains.
template <typename Run>
std::uint64_t reference_fp(const svc::WorkloadSpec& spec, int rounds) {
  using Mesh = typename CoordinatorT<Run>::Mesh;
  Run run(spec.transient);
  core::PnrOptions popt;
  popt.alpha = spec.alpha;
  popt.beta = spec.beta;
  pared::Session<Mesh> session(spec.strategy, spec.parts, spec.session_seed,
                               popt, kEngine);
  std::uint64_t fp = util::kFnvSeed;
  for (int i = 0; i < rounds && !run.done(); ++i) {
    run.advance();
    session.step(run.mutable_mesh());
    fp = util::fnv1a_value(assignment_fingerprint(session.coarse_assignment()),
                           fp);
    fp = util::fnv1a_value(mesh_fingerprint(run.mesh()), fp);
  }
  return fp;
}

/// N loopback server/client pairs, owned together so tests stay terse.
struct Fleet {
  std::vector<std::unique_ptr<svc::Server>> servers;
  std::vector<std::unique_ptr<svc::Client>> clients;
  std::vector<svc::Client*> daemons;

  explicit Fleet(int n) {
    for (int i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<svc::Server>());
      clients.push_back(std::make_unique<svc::Client>());
      EXPECT_TRUE(svc::connect_loopback(*servers.back(), *clients.back()));
      daemons.push_back(clients.back().get());
    }
  }
};

template <typename Run>
void expect_equivalence(svc::WorkloadSpec spec, int shards, int rounds) {
  spec.parts = shards;
  const std::uint64_t ref = reference_fp<Run>(spec, rounds);

  Fleet fleet(shards);
  CoordinatorT<Run> coord(spec, kEngine, fleet.daemons, {});
  std::string why;
  ASSERT_TRUE(coord.attach(&why)) << why;
  for (int i = 0; i < rounds && !coord.finished(); ++i) {
    const RoundResult r = coord.round();
    ASSERT_TRUE(r.ok) << "round " << (i + 1) << ": " << r.why;
  }
  EXPECT_EQ(coord.rounds(), rounds);
  EXPECT_EQ(coord.trajectory_fingerprint(), ref);
  ASSERT_TRUE(coord.finish(/*shutdown_daemons=*/true, &why)) << why;
}

/// The subtree codec on every root of an adapted transient mesh: each
/// payload verifies against its own replica, reports the tree's leaves and
/// has the size migrate.hpp documents; damaged payloads and a wrong root
/// come back as a reason, never an abort.
template <typename Run>
void check_subtree_codec(const pared::TransientOptions& options) {
  using Mesh = typename CoordinatorT<Run>::Mesh;
  constexpr std::size_t V = Mesh::kVertsPerElem;
  constexpr std::size_t D = Mesh::kDim;
  Run run(options);
  for (int i = 0; i < 3; ++i) run.advance();
  const Mesh& mesh = run.mesh();

  mesh::ElemIdx deepest = 0;
  for (mesh::ElemIdx c = 0; c < mesh.num_initial_elements(); ++c) {
    const Bytes bytes = pack_subtree(mesh, c);
    std::string why;
    const auto info =
        verify_subtree(mesh, c, bytes.data(), bytes.size(), &why);
    ASSERT_TRUE(info) << "root " << c << ": " << why;
    EXPECT_EQ(info->leaves, mesh.leaf_count(c));
    EXPECT_EQ(bytes.size(),
              8 + static_cast<std::size_t>(info->nodes) *
                      (4 + 4 * V + 2 + 1 + 8 * V * D));
    if (mesh.leaf_count(c) > mesh.leaf_count(deepest)) deepest = c;
  }
  ASSERT_GT(mesh.leaf_count(deepest), 1) << "the run refined nothing";

  const Bytes good = pack_subtree(mesh, deepest);
  const auto rejects = [&](const Bytes& bytes, mesh::ElemIdx root) {
    std::string why;
    const bool refused =
        !verify_subtree(mesh, root, bytes.data(), bytes.size(), &why);
    return refused && !why.empty();
  };
  EXPECT_TRUE(rejects(Bytes(good.begin(), good.end() - 1), deepest))
      << "truncated payload";
  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_TRUE(rejects(trailing, deepest)) << "trailing byte";
  Bytes flipped = good;
  // The first node's first coordinate starts after its count, id, corner
  // ids, level and leaf flag; flip the lowest bit of its mantissa.
  flipped[8 + 4 + 4 * V + 2 + 1] ^= 1;
  EXPECT_TRUE(rejects(flipped, deepest)) << "flipped coordinate bit";
  const mesh::ElemIdx other = deepest == 0 ? 1 : 0;
  EXPECT_TRUE(rejects(good, other)) << "wrong root";
  EXPECT_TRUE(rejects(good, mesh.num_initial_elements()))
      << "root out of range";
}

TEST(FedSubtree, CodecRoundTripsAndRefusesDamage2D) {
  pared::TransientOptions options;
  options.steps = 5;
  options.grid_n = 6;
  options.max_level = 3;
  check_subtree_codec<pared::TransientRun>(options);
}

TEST(FedSubtree, CodecRoundTripsAndRefusesDamage3D) {
  pared::TransientOptions options = pared::TransientRun3D::default_options();
  options.steps = 3;
  check_subtree_codec<pared::TransientRun3D>(options);
}

TEST(FedShard, LifecycleGuardsRejectOutOfOrderCalls) {
  const svc::WorkloadSpec spec = small_spec2d(2);
  Shard2D shard(pared::TransientRun(spec.transient), 0, 2);
  std::string why;
  EXPECT_FALSE(shard.commit(&why).has_value());  // nothing staged
  ASSERT_TRUE(shard.advance(&why).has_value()) << why;

  // The identity plan (every tree stays with its initial owner): stages
  // cleanly, moves nothing, and unblocks the next advance after commit.
  const auto n = static_cast<std::size_t>(2 * spec.transient.grid_n *
                                          spec.transient.grid_n);
  std::vector<part::PartId> same(n);
  for (std::size_t c = 0; c < n; ++c)
    same[c] = static_cast<part::PartId>(c % 2);
  const auto plan = shard.apply_plan(same, &why);
  ASSERT_TRUE(plan.has_value()) << why;
  EXPECT_EQ(plan->elements_out, 0);
  EXPECT_TRUE(plan->outgoing.empty());

  EXPECT_FALSE(shard.advance(&why).has_value());  // staged blocks advance
  EXPECT_FALSE(shard.apply_plan(same, &why).has_value());  // double stage
  ASSERT_TRUE(shard.commit(&why).has_value()) << why;
  EXPECT_TRUE(shard.advance(&why).has_value());  // commit unblocked it

  // A plan of the wrong length cannot stage.
  std::vector<part::PartId> wrong(n + 1, 0);
  EXPECT_FALSE(shard.apply_plan(wrong, &why).has_value());
}

TEST(FedCoordinator, TwoShards2DMatchTheSingleProcessSession) {
  expect_equivalence<pared::TransientRun>(small_spec2d(2), 2, 4);
}

TEST(FedCoordinator, ThreeShards2DMatchTheSingleProcessSession) {
  expect_equivalence<pared::TransientRun>(small_spec2d(3), 3, 4);
}

TEST(FedCoordinator, TwoShards3DMatchTheSingleProcessSession) {
  expect_equivalence<pared::TransientRun3D>(small_spec3d(2), 2, 2);
}

TEST(FedCoordinator, AttachRefusalsAreExplained) {
  std::string why;
  {
    // The server-default engine byte is ambiguous across daemons.
    Fleet fleet(1);
    svc::WorkloadSpec spec = small_spec2d(1);
    spec.engine = svc::kEngineDefault;
    Coordinator2D coord(spec, kEngine, fleet.daemons, {});
    EXPECT_FALSE(coord.attach(&why));
    EXPECT_NE(why.find("engine"), std::string::npos) << why;
  }
  {
    // parts must equal the daemon count (shards are the parts).
    Fleet fleet(1);
    Coordinator2D coord(small_spec2d(3), kEngine, fleet.daemons, {});
    EXPECT_FALSE(coord.attach(&why));
  }
  {
    Fleet fleet(1);
    svc::WorkloadSpec spec = small_spec2d(1);
    spec.strategy = pared::Strategy::kMlklRemap;
    Coordinator2D coord(spec, kEngine, fleet.daemons, {});
    EXPECT_FALSE(coord.attach(&why));
  }
}

TEST(FedRegistry, RejectedSubtreeIsATypedErrorAndTheSessionStaysLive) {
  svc::Server server;
  svc::Client client;
  ASSERT_TRUE(svc::connect_loopback(server, client));
  const svc::WorkloadSpec spec = small_spec2d(2);

  const auto s0 = client.fed_attach(svc::FedAttach{spec, 0, 2});
  const auto s1 = client.fed_attach(svc::FedAttach{spec, 1, 2});
  ASSERT_TRUE(s0);
  ASSERT_TRUE(s1);
  EXPECT_EQ(s0->mesh_fp, s1->mesh_fp);

  ASSERT_TRUE(client.fed_advance(s0->session));
  ASSERT_TRUE(client.fed_advance(s1->session));

  // Move tree 0 (initially owned by shard 0) to shard 1.
  const auto n = static_cast<std::size_t>(2 * spec.transient.grid_n *
                                          spec.transient.grid_n);
  std::vector<part::PartId> next(n);
  for (std::size_t c = 0; c < n; ++c)
    next[c] = static_cast<part::PartId>(c % 2);
  next[0] = 1;
  const auto plan0 = client.fed_plan(s0->session, next);
  ASSERT_TRUE(plan0);
  ASSERT_FALSE(plan0->outgoing.empty());
  const auto plan1 = client.fed_plan(s1->session, next);
  ASSERT_TRUE(plan1);
  EXPECT_TRUE(plan1->outgoing.empty());

  // A corrupted subtree must be refused with kAuditFailed — and because
  // exchange is pure validation, the session survives untouched.
  std::vector<svc::FedTree> bad = plan0->outgoing;
  bad[0].payload[bad[0].payload.size() / 2] ^= 0x01;
  EXPECT_FALSE(client.fed_exchange(s1->session, 0, bad));
  EXPECT_EQ(client.last_error().code, svc::Err::kAuditFailed);

  // The pristine payload is accepted by the same, still-live session.
  const auto accepted = client.fed_exchange(s1->session, 0, plan0->outgoing);
  ASSERT_TRUE(accepted);
  EXPECT_EQ(accepted->accepted,
            static_cast<std::int64_t>(plan0->outgoing.size()));
  EXPECT_GT(accepted->leaves_in, 0);

  const auto c0 = client.fed_commit(s0->session);
  const auto c1 = client.fed_commit(s1->session);
  ASSERT_TRUE(c0);
  ASSERT_TRUE(c1);
  EXPECT_EQ(c0->assign_fp, c1->assign_fp);
  EXPECT_EQ(c0->mesh_fp, c1->mesh_fp);
  EXPECT_EQ(c0->elements, c1->elements);
  EXPECT_EQ(c0->owned_leaves + c1->owned_leaves, c0->elements);
}

TEST(FedCheckpoint, RestoreReplaysAFederatedShard) {
  svc::Server server;
  svc::Client client;
  ASSERT_TRUE(svc::connect_loopback(server, client));

  const auto created =
      client.fed_attach(svc::FedAttach{small_spec2d(2), 0, 2});
  ASSERT_TRUE(created);
  ASSERT_TRUE(client.fed_advance(created->session));
  ASSERT_TRUE(client.fed_advance(created->session));

  const auto ckpt = client.checkpoint(created->session);
  ASSERT_TRUE(ckpt);
  const auto restored = client.restore(*ckpt);
  ASSERT_TRUE(restored);
  EXPECT_NE(restored->session, created->session);
  EXPECT_EQ(restored->replayed, 2u);  // the two fed advances

  // Both sessions now step in lockstep: identical replicas, bit for bit.
  const auto a = client.fed_advance(created->session);
  const auto b = client.fed_advance(restored->session);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a->step, b->step);
  EXPECT_EQ(a->elements, b->elements);
  EXPECT_EQ(a->mesh_fp, b->mesh_fp);
}

TEST(FedCoordinator, FinishClosesShardSessionsBeforeAnyShutdown) {
  svc::WorkloadSpec spec = small_spec2d(2);
  Fleet fleet(2);
  Coordinator2D coord(spec, kEngine, fleet.daemons, {});
  std::string why;
  ASSERT_TRUE(coord.attach(&why)) << why;
  ASSERT_TRUE(coord.round().ok);

  // finish(false): sessions are quiesced and closed, daemons stay up.
  ASSERT_TRUE(coord.finish(/*shutdown_daemons=*/false, &why)) << why;
  for (svc::Client* c : fleet.daemons) {
    const auto sessions = c->list_sessions();
    ASSERT_TRUE(sessions);
    EXPECT_TRUE(sessions->empty());
    EXPECT_TRUE(c->ping());  // still serving — shutdown was not requested
  }
}

}  // namespace
}  // namespace pnr::fed
