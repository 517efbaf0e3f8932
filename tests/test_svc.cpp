// pnr::svc tests: wire framing, payload codecs, registry semantics, and the
// parity gates — a client driving a real Server through a socketpair must
// produce bit-identical StepReports to an in-process pared::Session, and a
// checkpoint restored mid-run must resume to identical reports.

#include <gtest/gtest.h>

#include <cstring>

#include "engine/engine.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "svc/codec.hpp"
#include "svc/loopback.hpp"
#include "svc/registry.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "util/fnv.hpp"

namespace pnr::svc {
namespace {

void expect_report_eq(const pared::StepReport& a, const pared::StepReport& b) {
  EXPECT_EQ(a.elements, b.elements);
  EXPECT_EQ(a.cut_prev, b.cut_prev);
  EXPECT_EQ(a.cut_new, b.cut_new);
  EXPECT_EQ(a.shared_vertices, b.shared_vertices);
  EXPECT_EQ(a.migrated, b.migrated);
  EXPECT_EQ(a.migrated_remapped, b.migrated_remapped);
  // Bitwise: the service runs the identical deterministic code path.
  EXPECT_EQ(std::memcmp(&a.imbalance, &b.imbalance, sizeof(double)), 0);
}

std::optional<ErrorInfo> error_of(const Reply& reply) {
  if (reply.type != kTypeError) return std::nullopt;
  return decode_error(reply.payload);
}

// ---- wire -------------------------------------------------------------------

TEST(SvcWire, Crc32MatchesTheIeeeCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(SvcWire, FrameRoundTrips) {
  const Bytes payload{1, 2, 3, 4, 5};
  const Bytes frame = encode_frame(kOpStep, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size());
  const auto h = decode_header(frame.data());
  ASSERT_TRUE(h);
  EXPECT_EQ(h->version, kWireVersion);
  EXPECT_EQ(h->type, kOpStep);
  EXPECT_EQ(h->payload_len, payload.size());
  EXPECT_EQ(h->payload_crc, crc32(payload));
}

TEST(SvcWire, BadMagicIsRejected) {
  Bytes frame = encode_frame(kOpPing, Bytes{});
  frame[0] ^= 0xff;
  EXPECT_FALSE(decode_header(frame.data()));
}

TEST(SvcWire, ErrorPayloadRoundTrips) {
  const Bytes payload = encode_error(Err::kUnknownSession, "no session 7");
  const auto info = decode_error(payload);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->code, Err::kUnknownSession);
  EXPECT_EQ(info->detail, "no session 7");
  EXPECT_STREQ(err_name(info->code), "unknown_session");
}

// ---- codec ------------------------------------------------------------------

TEST(SvcCodec, MeshRoundTripsThroughFlattening) {
  const auto mesh = mesh::structured_tri_mesh(4, 4, 0.25, 3);
  const FlatMesh flat = flatten_mesh(mesh);
  par::Writer w;
  encode_mesh(w, flat);
  const Bytes bytes = w.take();
  par::TryReader r(bytes);
  const auto decoded = decode_mesh(r, Limits{});
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded->dim, 2);
  EXPECT_EQ(decoded->coords, flat.coords);
  EXPECT_EQ(decoded->elems, flat.elems);
  const auto rebuilt = build_mesh<mesh::TriMesh>(*decoded);
  ASSERT_TRUE(rebuilt);
  EXPECT_EQ(rebuilt->num_leaves(), mesh.num_leaves());
}

TEST(SvcCodec, TetMeshRoundTrips) {
  const auto mesh = mesh::structured_tet_mesh(2, 2, 2, 0.2, 5);
  const FlatMesh flat = flatten_mesh(mesh);
  const auto rebuilt = build_mesh<mesh::TetMesh>(flat);
  ASSERT_TRUE(rebuilt);
  EXPECT_EQ(rebuilt->num_leaves(), mesh.num_leaves());
}

TEST(SvcCodec, HostileMeshesAreRejectedWithoutAborting) {
  std::string why;
  {  // repeated corner
    FlatMesh m{2, {0, 0, 1, 0, 0, 1}, {0, 0, 1}};
    EXPECT_FALSE(build_mesh<mesh::TriMesh>(m, &why));
  }
  {  // zero area
    FlatMesh m{2, {0, 0, 1, 0, 2, 0}, {0, 1, 2}};
    EXPECT_FALSE(build_mesh<mesh::TriMesh>(m, &why));
  }
  {  // index out of range
    FlatMesh m{2, {0, 0, 1, 0, 0, 1}, {0, 1, 7}};
    EXPECT_FALSE(build_mesh<mesh::TriMesh>(m, &why));
  }
  {  // non-finite coordinate
    FlatMesh m{2, {0, 0, 1, 0, 0, 1e301}, {0, 1, 2}};
    m.coords[5] = m.coords[5] * 1e10;  // inf
    EXPECT_FALSE(build_mesh<mesh::TriMesh>(m, &why));
  }
  {  // non-manifold edge: three triangles on edge {0,1}
    FlatMesh m{2,
               {0, 0, 1, 0, 0, 1, 1, 1, -1, -1},
               {0, 1, 2, 0, 1, 3, 0, 1, 4}};
    EXPECT_FALSE(build_mesh<mesh::TriMesh>(m, &why));
    EXPECT_NE(why.find("manifold"), std::string::npos);
  }
  {  // degenerate tet
    FlatMesh m{3, {0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0}, {0, 1, 2, 3}};
    EXPECT_FALSE(build_mesh<mesh::TetMesh>(m, &why));
  }
}

TEST(SvcCodec, GraphRoundTripsAndHostileCsrIsRejected) {
  const auto mesh = mesh::structured_tri_mesh(4, 4, 0.25, 1);
  const graph::Graph g = mesh::fine_dual_graph(mesh).graph;
  par::Writer w;
  encode_graph(w, g);
  const Bytes bytes = w.take();
  par::TryReader r(bytes);
  std::string why;
  const auto decoded = decode_graph(r, Limits{}, &why);
  ASSERT_TRUE(decoded) << why;
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded->num_vertices(), g.num_vertices());
  EXPECT_EQ(decoded->adjncy(), g.adjncy());

  {  // asymmetric: claims edge 0->1 but not 1->0
    par::Writer bad;
    bad.put_vector(std::vector<std::int64_t>{0, 1, 1, 1});
    bad.put_vector(std::vector<graph::VertexId>{1});
    bad.put_vector(std::vector<graph::Weight>{1});
    bad.put_vector(std::vector<graph::Weight>{1, 1, 1});
    const Bytes b = bad.take();
    par::TryReader br(b);
    EXPECT_FALSE(decode_graph(br, Limits{}, &why));
  }
  {  // non-monotone xadj
    par::Writer bad;
    bad.put_vector(std::vector<std::int64_t>{0, 2, 1, 2});
    bad.put_vector(std::vector<graph::VertexId>{1, 0});
    bad.put_vector(std::vector<graph::Weight>{1, 1});
    bad.put_vector(std::vector<graph::Weight>{1, 1, 1});
    const Bytes b = bad.take();
    par::TryReader br(b);
    EXPECT_FALSE(decode_graph(br, Limits{}, &why));
  }
  {  // neighbor id out of range
    par::Writer bad;
    bad.put_vector(std::vector<std::int64_t>{0, 1, 2});
    bad.put_vector(std::vector<graph::VertexId>{9, 0});
    bad.put_vector(std::vector<graph::Weight>{1, 1});
    bad.put_vector(std::vector<graph::Weight>{1, 1});
    const Bytes b = bad.take();
    par::TryReader br(b);
    EXPECT_FALSE(decode_graph(br, Limits{}, &why));
  }
}

TEST(SvcCodec, WorkloadSpecRoundTripsAndValidates) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTransient3D;
  spec.strategy = pared::Strategy::kMlklRemap;
  spec.parts = 12;
  spec.session_seed = 99;
  spec.transient.steps = 17;
  spec.transient.grid_n = 9;
  spec.alpha = 0.25;
  par::Writer w;
  encode_workload_spec(w, spec);
  const Bytes bytes = w.take();
  par::TryReader r(bytes);
  const auto decoded = decode_workload_spec(r, Limits{});
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded->kind, spec.kind);
  EXPECT_EQ(decoded->strategy, spec.strategy);
  EXPECT_EQ(decoded->parts, spec.parts);
  EXPECT_EQ(decoded->session_seed, spec.session_seed);
  EXPECT_EQ(decoded->transient.steps, spec.transient.steps);
  EXPECT_EQ(decoded->transient.grid_n, spec.transient.grid_n);
  EXPECT_EQ(decoded->alpha, spec.alpha);

  // Hostile knobs that would explode the server are rejected.
  auto reject = [](WorkloadSpec s) {
    par::Writer bw;
    encode_workload_spec(bw, s);
    const Bytes b = bw.take();
    par::TryReader br(b);
    return !decode_workload_spec(br, Limits{});
  };
  WorkloadSpec s = spec;
  s.transient.refine_threshold = 0.0;  // refine-everything forever
  EXPECT_TRUE(reject(s));
  s = spec;
  s.transient.max_level = 60;
  EXPECT_TRUE(reject(s));
  s = spec;
  s.parts = 0;
  EXPECT_TRUE(reject(s));
  s = spec;
  s.transient.t_end = s.transient.t_begin - 1;
  EXPECT_TRUE(reject(s));
}

TEST(SvcCodec, StepReportRoundTrips) {
  pared::StepReport report;
  report.elements = 123;
  report.cut_prev = 45;
  report.cut_new = 44;
  report.shared_vertices = 46;
  report.migrated = 7;
  report.migrated_remapped = 5;
  report.imbalance = 0.0123;
  par::Writer w;
  encode_step_report(w, report);
  const Bytes bytes = w.take();
  par::TryReader r(bytes);
  const auto decoded = decode_step_report(r);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(r.done());
  expect_report_eq(*decoded, report);
}

// ---- registry ---------------------------------------------------------------

Bytes id_payload(std::uint32_t id) {
  par::Writer w;
  w.put(id);
  return w.take();
}

TEST(SvcRegistry, PingEchoes) {
  Registry registry;
  const Bytes payload{9, 8, 7};
  const Reply reply = registry.handle(kOpPing, payload);
  EXPECT_EQ(reply.type, kOpPing | kReplyBit);
  EXPECT_EQ(reply.payload, payload);
}

TEST(SvcRegistry, UnknownOpAndSessionsAreTypedErrors) {
  Registry registry;
  auto e = error_of(registry.handle(700, Bytes{}));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kBadOp);

  e = error_of(registry.handle(kOpStep, id_payload(42)));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kUnknownSession);

  e = error_of(registry.handle(kOpStep, Bytes{1, 2}));  // truncated id
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kBadPayload);

  e = error_of(registry.handle(kOpCreateWorkload, Bytes{0xff, 0xff}));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kBadPayload);
  EXPECT_EQ(registry.num_sessions(), 0u);
}

WorkloadSpec small_transient2d() {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTransient2D;
  spec.strategy = pared::Strategy::kPNR;
  spec.parts = 4;
  spec.session_seed = 7;
  spec.transient.steps = 8;
  spec.transient.grid_n = 10;
  spec.transient.max_level = 4;
  return spec;
}

std::uint32_t must_create(Registry& registry, const WorkloadSpec& spec) {
  par::Writer w;
  encode_workload_spec(w, spec);
  const Reply reply = registry.handle(kOpCreateWorkload, w.take());
  EXPECT_EQ(reply.type, kOpCreateWorkload | kReplyBit);
  par::TryReader r(reply.payload);
  const auto id = r.get<std::uint32_t>();
  EXPECT_TRUE(id);
  return id ? *id : 0;
}

TEST(SvcRegistry, SessionLimitIsEnforced) {
  Limits limits;
  limits.max_sessions = 1;
  Registry registry(limits);
  must_create(registry, small_transient2d());
  par::Writer w;
  encode_workload_spec(w, small_transient2d());
  const auto e = error_of(registry.handle(kOpCreateWorkload, w.take()));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kLimitExceeded);
}

TEST(SvcRegistry, AdaptIsRefusedOnWorkloadSessions) {
  Registry registry;
  const auto id = must_create(registry, small_transient2d());
  par::Writer w;
  w.put(id);
  w.put(std::uint8_t{0});
  w.put_vector(std::vector<mesh::ElemIdx>{0, 1});
  const auto e = error_of(registry.handle(kOpAdapt, w.take()));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kBadState);
}

TEST(SvcRegistry, ExplosiveTransientSpecsAreRejectedBeforeConstruction) {
  // These specs pass the codec's generic range checks, but full refinement
  // to the depth cap would blow far past max_elements — and a TransientRun
  // refines inside its constructor, before any post-construction check can
  // run. The registry must reject them from the spec alone.
  Registry registry;
  const auto reject = [&](WorkloadSpec spec) {
    spec.parts = 2;
    spec.transient.refine_threshold = 1e-9;  // marks essentially every leaf
    par::Writer w;
    encode_workload_spec(w, spec);
    const auto e = error_of(registry.handle(kOpCreateWorkload, w.take()));
    ASSERT_TRUE(e);
    EXPECT_EQ(e->code, Err::kLimitExceeded);
  };
  WorkloadSpec spec2d;
  spec2d.kind = WorkloadKind::kTransient2D;
  spec2d.transient.grid_n = 128;
  spec2d.transient.max_level = 16;
  reject(spec2d);
  WorkloadSpec spec3d;
  spec3d.kind = WorkloadKind::kTransient3D;
  spec3d.transient.grid_n = 24;
  spec3d.transient.max_level = 8;
  reject(spec3d);
  EXPECT_EQ(registry.num_sessions(), 0u);
}

TEST(SvcRegistry, ShutdownStopsFurtherWork) {
  Registry registry;
  EXPECT_EQ(registry.handle(kOpShutdown, Bytes{}).type,
            kOpShutdown | kReplyBit);
  EXPECT_TRUE(registry.shutting_down());
  const auto e = error_of(registry.handle(kOpListSessions, Bytes{}));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kShuttingDown);
}

TEST(SvcRegistry, OplogOverflowDisablesCheckpointing) {
  Limits limits;
  limits.max_oplog_entries = 2;
  Registry registry(limits);
  const auto id = must_create(registry, small_transient2d());
  for (int i = 0; i < 3; ++i) {
    const Reply r = registry.handle(kOpAdvance, id_payload(id));
    ASSERT_EQ(r.type, kOpAdvance | kReplyBit);
  }
  const auto e = error_of(registry.handle(kOpCheckpoint, id_payload(id)));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kBadState);
  // The session itself is still perfectly usable.
  EXPECT_EQ(registry.handle(kOpStep, id_payload(id)).type,
            kOpStep | kReplyBit);
}

// ---- loopback server + parity gates ----------------------------------------

TEST(SvcServer, ErrorGradingOverTheWire) {
  Server server;
  const int fd = adopt_loopback_raw(server);
  ASSERT_GE(fd, 0);

  // Bad CRC: typed error, connection stays up.
  Bytes frame = encode_frame(kOpListSessions, Bytes{});
  frame[12] ^= 0xff;
  ASSERT_TRUE(raw_send(fd, frame, server));
  Bytes in;
  ASSERT_TRUE(raw_recv(fd, in, server));
  ASSERT_GE(in.size(), kHeaderBytes);
  auto h = decode_header(in.data());
  ASSERT_TRUE(h);
  EXPECT_EQ(h->type, kTypeError);
  {
    const Bytes body(in.begin() + kHeaderBytes,
                     in.begin() + kHeaderBytes + h->payload_len);
    const auto info = decode_error(body);
    ASSERT_TRUE(info);
    EXPECT_EQ(info->code, Err::kBadCrc);
  }

  // Bad version: typed error, connection stays up.
  in.clear();
  frame = encode_frame(kOpListSessions, Bytes{});
  frame[4] = 0x7f;
  ASSERT_TRUE(raw_send(fd, frame, server));
  ASSERT_TRUE(raw_recv(fd, in, server));
  ASSERT_GE(in.size(), kHeaderBytes);
  h = decode_header(in.data());
  ASSERT_TRUE(h);
  EXPECT_EQ(h->type, kTypeError);

  // A good frame still works on the same connection.
  in.clear();
  ASSERT_TRUE(raw_send(fd, encode_frame(kOpPing, Bytes{1}), server));
  ASSERT_TRUE(raw_recv(fd, in, server));
  ASSERT_GE(in.size(), kHeaderBytes);
  h = decode_header(in.data());
  ASSERT_TRUE(h);
  EXPECT_EQ(h->type, kOpPing | kReplyBit);

  // Bad magic: the stream is not speaking the protocol — connection closed.
  in.clear();
  Bytes junk{'G', 'E', 'T', ' ', '/', '\r', '\n'};
  junk.resize(64, 0);
  raw_send(fd, junk, server);
  bool open = true;
  for (int i = 0; i < 10 && open; ++i) open = raw_recv(fd, in, server);
  EXPECT_FALSE(open);
  EXPECT_EQ(server.num_connections(), 0u);
  raw_close(fd);
}

TEST(SvcServer, ClientRoundTripsOverSocketpair) {
  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));
  EXPECT_TRUE(client.ping());

  const auto created = client.create_workload(small_transient2d());
  ASSERT_TRUE(created);
  EXPECT_GT(created->elements, 0);

  const auto sessions = client.list_sessions();
  ASSERT_TRUE(sessions);
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ((*sessions)[0].session, created->session);
  EXPECT_EQ((*sessions)[0].kind, "transient2d");

  const auto metrics = client.get_metrics(created->session);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->kind, "transient2d");
  EXPECT_EQ(metrics->parts, 4);
  EXPECT_FALSE(metrics->last_report);

  ASSERT_TRUE(client.close_session(created->session));
  EXPECT_FALSE(client.get_metrics(created->session));
  EXPECT_EQ(client.last_error().code, Err::kUnknownSession);

  EXPECT_TRUE(client.shutdown_server());
}

TEST(SvcServer, UnreadReplyBacklogThrottlesWithoutLosingReplies) {
  // A client that pipelines many requests but reads nothing must not grow
  // conn.out without bound: past max_output_backlog the server parks the
  // remaining requests and stops reading. Once the client drains, every
  // parked request must still be answered, in order.
  ServerOptions options;
  options.max_output_backlog = 256u << 10;
  Server server(options);
  const int fd = adopt_loopback_raw(server);
  ASSERT_GE(fd, 0);

  // A session whose assignment reply (~80 KiB) dwarfs its 20-byte request:
  // a small pipelined burst — which always fits the socket buffer — makes
  // replies pile up far past the cap.
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTransient2D;
  spec.parts = 2;
  spec.transient.grid_n = 100;
  spec.transient.max_level = 1;
  par::Writer sw;
  encode_workload_spec(sw, spec);
  ASSERT_TRUE(
      raw_send(fd, encode_frame(kOpCreateWorkload, sw.take()), server));
  Bytes in;
  while (in.size() < kHeaderBytes + 12)
    ASSERT_TRUE(raw_recv(fd, in, server));
  auto h = decode_header(in.data());
  ASSERT_TRUE(h);
  ASSERT_EQ(h->type, kOpCreateWorkload | kReplyBit);
  par::TryReader cr(in.data() + kHeaderBytes, h->payload_len);
  const auto session = cr.get<std::uint32_t>();
  ASSERT_TRUE(session);
  in.clear();

  constexpr int kRequests = 50;
  par::Writer rw;
  rw.put(*session);
  const Bytes request = encode_frame(kOpGetAssignment, rw.take());
  Bytes burst;
  for (int i = 0; i < kRequests; ++i)
    burst.insert(burst.end(), request.begin(), request.end());
  ASSERT_TRUE(raw_send(fd, burst, server));
  for (int i = 0; i < 4; ++i) server.poll_once(0);
  EXPECT_EQ(server.num_connections(), 1u);  // throttled, not closed

  while (in.size() < kHeaderBytes) ASSERT_TRUE(raw_recv(fd, in, server));
  h = decode_header(in.data());
  ASSERT_TRUE(h);
  ASSERT_EQ(h->type, kOpGetAssignment | kReplyBit);
  const std::size_t reply_size = kHeaderBytes + h->payload_len;
  const std::size_t want = kRequests * reply_size;
  for (int spin = 0; spin < 100000 && in.size() < want; ++spin)
    ASSERT_TRUE(raw_recv(fd, in, server));
  ASSERT_EQ(in.size(), want);
  for (int i = 0; i < kRequests; ++i) {
    const auto rh = decode_header(in.data() + i * reply_size);
    ASSERT_TRUE(rh);
    EXPECT_EQ(rh->type, kOpGetAssignment | kReplyBit);
    EXPECT_EQ(rh->payload_len, reply_size - kHeaderBytes);
  }
  EXPECT_EQ(server.num_connections(), 1u);
  raw_close(fd);
}

TEST(SvcClient, ShortReplyBodiesAreRejectedNotDereferenced) {
  // TryReader::get() does not consume bytes on failure, so a truncated
  // reply can fail its wide fields while a narrower later field still
  // decodes. The client must reject such bodies instead of dereferencing
  // the failed optionals (historically UB on a hostile/corrupted server).
  Client client;
  const int fd = adopt_client_raw(client);
  ASSERT_GE(fd, 0);

  // repartition reply of 4 bytes: all five i64/f64 fields fail, the
  // trailing i32 `levels` succeeds.
  {
    par::Writer w;
    w.put(std::int32_t{3});
    ASSERT_TRUE(
        raw_write(fd, encode_frame(kOpRepartition | kReplyBit, w.take())));
    EXPECT_FALSE(client.repartition(7));
  }
  // restore reply of 8 bytes: id and replayed decode, elements does not,
  // and the reader still reports done().
  {
    par::Writer w;
    w.put(std::uint32_t{1});
    w.put(std::uint32_t{2});
    ASSERT_TRUE(raw_write(fd, encode_frame(kOpRestore | kReplyBit, w.take())));
    EXPECT_FALSE(client.restore(Bytes{}));
  }
  // created reply of 11 bytes: id decodes, elements does not, and a stray
  // trailing i32 would satisfy neither done() nor the field checks.
  {
    par::Writer w;
    w.put(std::uint32_t{1});
    w.put(std::int32_t{0});
    ASSERT_TRUE(
        raw_write(fd, encode_frame(kOpCreateWorkload | kReplyBit, w.take())));
    EXPECT_FALSE(client.create_workload(WorkloadSpec{}));
  }
  raw_close(fd);
}

TEST(SvcParity, Transient2DOverTheWireIsBitIdentical) {
  const WorkloadSpec spec = small_transient2d();
  constexpr int kSteps = 3;

  // In-process reference, mirroring the registry's deferred-metrics setup:
  // step reports carry only the cheap fields; metrics() settles the rest.
  std::vector<pared::StepReport> expected;
  pared::StepReport expected_full;
  {
    pared::TransientRun run(spec.transient);
    pared::Session2D session(spec.strategy, spec.parts, spec.session_seed);
    session.set_defer_metrics(true);
    for (int i = 0; i < kSteps; ++i) {
      run.advance();
      expected.push_back(session.step(run.mutable_mesh()));
    }
    expected_full = session.metrics(run.mesh());
  }

  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));
  const auto created = client.create_workload(spec);
  ASSERT_TRUE(created);
  for (int i = 0; i < kSteps; ++i) {
    ASSERT_TRUE(client.advance(created->session));
    const auto report = client.step(created->session);
    ASSERT_TRUE(report);
    expect_report_eq(*report, expected[static_cast<std::size_t>(i)]);
  }

  // And the exported assignment matches the element tags the in-process
  // session would carry: same length as leaves, all parts within range.
  const auto assign = client.get_assignment(created->session);
  ASSERT_TRUE(assign);
  const auto metrics = client.get_metrics(created->session);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(static_cast<std::int64_t>(assign->size()), metrics->elements);
  // get_metrics settles the deferred quantities — bit-identical to the
  // in-process session's metrics().
  ASSERT_TRUE(metrics->last_report);
  expect_report_eq(*metrics->last_report, expected_full);
  for (const auto p : *assign) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, spec.parts);
  }
}

TEST(SvcParity, Transient3DOverTheWireIsBitIdentical) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTransient3D;
  spec.strategy = pared::Strategy::kPNR;
  spec.parts = 4;
  spec.session_seed = 11;
  spec.transient = pared::TransientRun3D::default_options();
  spec.transient.steps = 8;
  spec.transient.grid_n = 5;
  constexpr int kSteps = 2;

  std::vector<pared::StepReport> expected;
  {
    pared::TransientRun3D run(spec.transient);
    pared::Session3D session(spec.strategy, spec.parts, spec.session_seed);
    session.set_defer_metrics(true);
    for (int i = 0; i < kSteps; ++i) {
      run.advance();
      expected.push_back(session.step(run.mutable_mesh()));
    }
  }

  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));
  const auto created = client.create_workload(spec);
  ASSERT_TRUE(created);
  for (int i = 0; i < kSteps; ++i) {
    ASSERT_TRUE(client.advance(created->session));
    const auto report = client.step(created->session);
    ASSERT_TRUE(report);
    expect_report_eq(*report, expected[static_cast<std::size_t>(i)]);
  }
}

TEST(SvcParity, MlklRemapStrategyAlsoMatches) {
  WorkloadSpec spec = small_transient2d();
  spec.strategy = pared::Strategy::kMlklRemap;
  constexpr int kSteps = 2;

  std::vector<pared::StepReport> expected;
  {
    pared::TransientRun run(spec.transient);
    pared::Session2D session(spec.strategy, spec.parts, spec.session_seed);
    session.set_defer_metrics(true);
    for (int i = 0; i < kSteps; ++i) {
      run.advance();
      expected.push_back(session.step(run.mutable_mesh()));
    }
  }

  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));
  const auto created = client.create_workload(spec);
  ASSERT_TRUE(created);
  for (int i = 0; i < kSteps; ++i) {
    ASSERT_TRUE(client.advance(created->session));
    const auto report = client.step(created->session);
    ASSERT_TRUE(report);
    expect_report_eq(*report, expected[static_cast<std::size_t>(i)]);
  }
}

TEST(SvcCheckpoint, RestoreMidRunResumesToIdenticalReports) {
  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));
  const auto created = client.create_workload(small_transient2d());
  ASSERT_TRUE(created);

  // Two steps in, take a checkpoint.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.advance(created->session));
    ASSERT_TRUE(client.step(created->session));
  }
  const auto ckpt = client.checkpoint(created->session);
  ASSERT_TRUE(ckpt);

  // Continue the original for two more steps.
  std::vector<pared::StepReport> expected;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.advance(created->session));
    const auto report = client.step(created->session);
    ASSERT_TRUE(report);
    expected.push_back(*report);
  }

  // Restore the checkpoint: replay must land exactly where the original was.
  const auto restored = client.restore(*ckpt);
  ASSERT_TRUE(restored);
  EXPECT_NE(restored->session, created->session);
  EXPECT_EQ(restored->replayed, 4u);  // 2 advances + 2 steps

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.advance(restored->session));
    const auto report = client.step(restored->session);
    ASSERT_TRUE(report);
    expect_report_eq(*report, expected[static_cast<std::size_t>(i)]);
  }

  // The restored session can itself be checkpointed.
  EXPECT_TRUE(client.checkpoint(restored->session));
}

TEST(SvcCheckpoint, HostileCheckpointsAreRejected) {
  Registry registry;
  auto e = error_of(registry.handle(kOpRestore, Bytes{1, 2, 3}));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kBadPayload);

  // A checkpoint replaying a non-mutating op is refused outright.
  par::Writer w;
  w.put(std::uint16_t{kOpCreateWorkload});
  par::Writer inner;
  encode_workload_spec(inner, small_transient2d());
  w.put_vector(inner.take());
  w.put(std::uint32_t{1});
  w.put(std::uint16_t{kOpShutdown});
  w.put_vector(Bytes{});
  e = error_of(registry.handle(kOpRestore, w.take()));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->code, Err::kBadPayload);
  EXPECT_EQ(registry.num_sessions(), 0u);
}

// ---- uploaded meshes and graphs --------------------------------------------

TEST(SvcUpload, MeshSessionSupportsAdaptAndStep) {
  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));

  const auto mesh = mesh::structured_tri_mesh(6, 6, 0.25, 2);
  CreateHead head;
  head.strategy = pared::Strategy::kMlkl;
  head.parts = 4;
  const auto created = client.create_mesh(head, flatten_mesh(mesh));
  ASSERT_TRUE(created);
  EXPECT_EQ(created->elements, mesh.num_leaves());

  const auto first = client.step(created->session);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->elements, mesh.num_leaves());

  const auto adapted =
      client.adapt(created->session, 0, std::vector<mesh::ElemIdx>{0, 1, 2});
  ASSERT_TRUE(adapted);
  EXPECT_GT(adapted->changed, 0);
  EXPECT_GT(adapted->elements, created->elements);

  const auto second = client.step(created->session);
  ASSERT_TRUE(second);
  EXPECT_EQ(second->elements, adapted->elements);
  EXPECT_GT(second->migrated, -1);

  // Out-of-range marks are a typed error, not an abort.
  EXPECT_FALSE(client.adapt(created->session, 0,
                            std::vector<mesh::ElemIdx>{1 << 30}));
  EXPECT_EQ(client.last_error().code, Err::kBadPayload);
}

TEST(SvcUpload, GraphSessionRepartitions) {
  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));

  const auto mesh = mesh::structured_tri_mesh(8, 8, 0.25, 4);
  const graph::Graph g = mesh::fine_dual_graph(mesh).graph;
  CreateHead head;
  head.parts = 4;
  const auto created = client.create_graph(head, g);
  ASSERT_TRUE(created);
  EXPECT_EQ(created->elements, g.num_vertices());

  const auto assign = client.get_assignment(created->session);
  ASSERT_TRUE(assign);
  EXPECT_EQ(assign->size(), static_cast<std::size_t>(g.num_vertices()));

  const auto info = client.repartition(created->session);
  ASSERT_TRUE(info);
  EXPECT_GE(info->cut_before, 0);
  EXPECT_GE(info->cut_after, 0);

  const auto metrics = client.get_metrics(created->session);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->kind, "graph");
  ASSERT_TRUE(metrics->last_repartition);
  EXPECT_EQ(metrics->last_repartition->cut_after, info->cut_after);

  // A non-PNR strategy on a graph session is refused.
  CreateHead bad = head;
  bad.strategy = pared::Strategy::kRSB;
  EXPECT_FALSE(client.create_graph(bad, g));
  EXPECT_EQ(client.last_error().code, Err::kBadPayload);
}

TEST(SvcUpload, DisconnectedGraphIsRefused) {
  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));
  // Two disjoint edges: {0,1} and {2,3}.
  graph::Graph g({0, 1, 2, 3, 4}, {1, 0, 3, 2}, {1, 1, 1, 1}, {1, 1, 1, 1});
  CreateHead head;
  head.parts = 2;
  EXPECT_FALSE(client.create_graph(head, g));
  EXPECT_EQ(client.last_error().code, Err::kBadPayload);
}

// ---- engines ----------------------------------------------------------------

std::uint8_t wire_engine(engine::Kind k) { return static_cast<std::uint8_t>(k); }

TEST(SvcEngine, WorkloadSessionRunsTheRequestedEngineBitIdentically) {
  WorkloadSpec spec = small_transient2d();
  spec.engine = wire_engine(engine::Kind::kSfcHilbert);
  constexpr int kSteps = 3;

  // In-process reference on the same engine.
  std::vector<pared::StepReport> expected;
  {
    pared::TransientRun run(spec.transient);
    pared::Session2D session(spec.strategy, spec.parts, spec.session_seed, {},
                             engine::Kind::kSfcHilbert);
    session.set_defer_metrics(true);
    for (int i = 0; i < kSteps; ++i) {
      run.advance();
      expected.push_back(session.step(run.mutable_mesh()));
    }
  }

  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));
  const auto created = client.create_workload(spec);
  ASSERT_TRUE(created);
  for (int i = 0; i < kSteps; ++i) {
    ASSERT_TRUE(client.advance(created->session));
    const auto report = client.step(created->session);
    ASSERT_TRUE(report);
    expect_report_eq(*report, expected[static_cast<std::size_t>(i)]);
  }
  const auto metrics = client.get_metrics(created->session);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->engine, spec.engine);
}

TEST(SvcEngine, ServerDefaultSubstitutionSurvivesCheckpointRestore) {
  // A spec carrying the "server default" sentinel must be resolved at
  // create time and canonicalized into the stored create payload, so a
  // checkpoint restored on a server with a *different* default keeps the
  // engine that actually ran.
  ServerOptions morton_opts;
  morton_opts.limits.default_engine = wire_engine(engine::Kind::kSfcMorton);
  Server morton_server(morton_opts);
  Client morton_client;
  ASSERT_TRUE(connect_loopback(morton_server, morton_client));

  WorkloadSpec spec = small_transient2d();
  spec.engine = kEngineDefault;
  const auto created = morton_client.create_workload(spec);
  ASSERT_TRUE(created);
  const auto metrics = morton_client.get_metrics(created->session);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->engine, wire_engine(engine::Kind::kSfcMorton));

  ASSERT_TRUE(morton_client.advance(created->session));
  const auto before = morton_client.step(created->session);
  ASSERT_TRUE(before);
  const auto ckpt = morton_client.checkpoint(created->session);
  ASSERT_TRUE(ckpt);
  ASSERT_TRUE(morton_client.advance(created->session));
  const auto after = morton_client.step(created->session);
  ASSERT_TRUE(after);

  ServerOptions rib_opts;
  rib_opts.limits.default_engine = wire_engine(engine::Kind::kRib);
  Server rib_server(rib_opts);
  Client rib_client;
  ASSERT_TRUE(connect_loopback(rib_server, rib_client));
  const auto restored = rib_client.restore(*ckpt);
  ASSERT_TRUE(restored);
  const auto restored_metrics = rib_client.get_metrics(restored->session);
  ASSERT_TRUE(restored_metrics);
  EXPECT_EQ(restored_metrics->engine, wire_engine(engine::Kind::kSfcMorton));
  ASSERT_TRUE(rib_client.advance(restored->session));
  const auto replayed = rib_client.step(restored->session);
  ASSERT_TRUE(replayed);
  expect_report_eq(*replayed, *after);
}

TEST(SvcEngine, GraphSessionTakesCoordsAndPerRequestEngineOverrides) {
  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));

  const auto mesh = mesh::structured_tri_mesh(8, 8, 0.25, 4);
  const auto dual = mesh::fine_dual_graph(mesh);
  const auto coords = mesh::leaf_centroids(mesh, dual.elems);
  CreateHead head;
  head.parts = 4;
  head.engine = wire_engine(engine::Kind::kRib);
  const auto created = client.create_graph(head, dual.graph, coords, 2);
  ASSERT_TRUE(created);

  // No override: the session's engine runs, and the reply says which.
  const auto info = client.repartition(created->session);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->engine, wire_engine(engine::Kind::kRib));
  EXPECT_GE(info->cut_after, 0);

  // Per-request overrides round-trip on the wire, geometric and MLKL both.
  const auto hilbert =
      client.repartition(created->session, wire_engine(engine::Kind::kSfcHilbert));
  ASSERT_TRUE(hilbert);
  EXPECT_EQ(hilbert->engine, wire_engine(engine::Kind::kSfcHilbert));
  const auto mlkl =
      client.repartition(created->session, wire_engine(engine::Kind::kMlkl));
  ASSERT_TRUE(mlkl);
  EXPECT_EQ(mlkl->engine, wire_engine(engine::Kind::kMlkl));

  // The session default is unchanged by overrides.
  const auto metrics = client.get_metrics(created->session);
  ASSERT_TRUE(metrics);
  EXPECT_EQ(metrics->engine, wire_engine(engine::Kind::kRib));

  // An unregistered engine byte is a typed error, not an abort.
  EXPECT_FALSE(client.repartition(created->session, 77));
  EXPECT_EQ(client.last_error().code, Err::kBadPayload);
}

TEST(SvcEngine, GeometricEnginesWithoutCoordsAreRefused) {
  Server server;
  Client client;
  ASSERT_TRUE(connect_loopback(server, client));

  const auto mesh = mesh::structured_tri_mesh(8, 8, 0.25, 4);
  const graph::Graph g = mesh::fine_dual_graph(mesh).graph;
  CreateHead head;
  head.parts = 4;

  // Creating a geometric-engine session without a coordinate block fails.
  head.engine = wire_engine(engine::Kind::kSfcMorton);
  EXPECT_FALSE(client.create_graph(head, g));
  EXPECT_EQ(client.last_error().code, Err::kBadPayload);

  // An MLKL session without coords exists happily — until a repartition
  // asks it to run a geometric engine.
  head.engine = wire_engine(engine::Kind::kMlkl);
  const auto created = client.create_graph(head, g);
  ASSERT_TRUE(created);
  EXPECT_FALSE(
      client.repartition(created->session, wire_engine(engine::Kind::kRib)));
  EXPECT_EQ(client.last_error().code, Err::kBadState);
  // The session still works on its own engine afterwards.
  const auto info = client.repartition(created->session);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->engine, wire_engine(engine::Kind::kMlkl));
}

// ---- sharded server ---------------------------------------------------------

std::size_t complete_frames(const Bytes& buf) {
  std::size_t n = 0;
  std::size_t off = 0;
  while (buf.size() - off >= kHeaderBytes) {
    const auto h = decode_header(buf.data() + off);
    if (!h || buf.size() - off - kHeaderBytes < h->payload_len) break;
    off += kHeaderBytes + h->payload_len;
    ++n;
  }
  return n;
}

/// Pump the server and read until `buf` holds `want` complete frames. The
/// spin bound only matters on failure: a healthy sharded server finishes a
/// tiny-mesh request in far fewer scheduler round trips.
bool recv_until(int fd, Server& server, Bytes& buf, std::size_t want) {
  for (int spin = 0; spin < 500000; ++spin) {
    if (complete_frames(buf) >= want) return true;
    if (!raw_recv(fd, buf, server)) return false;
  }
  return complete_frames(buf) >= want;
}

Bytes frame_id(std::uint16_t op, std::uint32_t id) {
  par::Writer w;
  w.put(id);
  return encode_frame(op, w.take());
}

/// A synchronous mixed control/session script: every request kind the
/// server grades differently, each awaited before the next is sent, so the
/// reply byte stream is fully ordered on any server configuration.
std::vector<Bytes> parity_script() {
  std::vector<Bytes> frames;
  frames.push_back(encode_frame(kOpPing, Bytes{9, 9}));
  par::Writer w;
  encode_workload_spec(w, small_transient2d());
  frames.push_back(encode_frame(kOpCreateWorkload, w.take()));  // id 1
  for (int i = 0; i < 2; ++i) {
    frames.push_back(frame_id(kOpAdvance, 1));
    frames.push_back(frame_id(kOpStep, 1));
  }
  frames.push_back(frame_id(kOpGetMetrics, 1));
  frames.push_back(frame_id(kOpCheckpoint, 1));
  frames.push_back(frame_id(kOpGetAssignment, 1));
  frames.push_back(encode_frame(kOpListSessions, Bytes{}));
  // An intact frame with a corrupted payload byte: typed kBadCrc error.
  Bytes bad = encode_frame(kOpPing, Bytes{1, 2, 3});
  bad[kHeaderBytes] ^= 0xff;
  frames.push_back(bad);
  frames.push_back(frame_id(kOpGetMetrics, 77));  // unknown session
  frames.push_back(frame_id(kOpCloseSession, 1));
  par::Writer w2;
  encode_workload_spec(w2, small_transient2d());
  frames.push_back(encode_frame(kOpCreateWorkload, w2.take()));  // id 2
  frames.push_back(frame_id(kOpCloseSession, 2));
  // A non-default engine session: the sharded gate must also hold for the
  // geometric path (engine byte on create, engine echo in metrics).
  WorkloadSpec sfc = small_transient2d();
  sfc.engine = static_cast<std::uint8_t>(engine::Kind::kSfcHilbert);
  par::Writer w3;
  encode_workload_spec(w3, sfc);
  frames.push_back(encode_frame(kOpCreateWorkload, w3.take()));  // id 3
  frames.push_back(frame_id(kOpAdvance, 3));
  frames.push_back(frame_id(kOpStep, 3));
  frames.push_back(frame_id(kOpGetMetrics, 3));
  frames.push_back(frame_id(kOpGetAssignment, 3));
  frames.push_back(frame_id(kOpCloseSession, 3));
  return frames;
}

Bytes run_script_sync(Server& server, const std::vector<Bytes>& frames) {
  const int fd = adopt_loopback_raw(server);
  EXPECT_GE(fd, 0);
  Bytes in;
  std::size_t expect = 0;
  for (const Bytes& f : frames) {
    EXPECT_TRUE(raw_send(fd, f, server));
    ++expect;
    EXPECT_TRUE(recv_until(fd, server, in, expect));
  }
  raw_close(fd);
  return in;
}

TEST(SvcSharded, AnyShardCountIsByteIdenticalToTheSerialPath) {
  // The regression gate for the sharding refactor: the same request script
  // against the pre-shard serial server (threads = 0) and sharded servers
  // must produce identical reply bytes — including session ids, error
  // details, checkpoints and assignments.
  const std::vector<Bytes> script = parity_script();
  Server serial;
  const Bytes reference = run_script_sync(serial, script);
  ASSERT_EQ(complete_frames(reference), script.size());
  for (const int threads : {1, 2, 4}) {
    ServerOptions opt;
    opt.threads = threads;
    Server sharded(opt);
    ASSERT_EQ(sharded.num_threads(), threads);
    const Bytes stream = run_script_sync(sharded, script);
    EXPECT_TRUE(stream == reference) << "threads=" << threads;
  }
}

TEST(SvcSharded, PipelinedCreatesKeepFrameOrderAtAnyShardCount) {
  // Creates (and fed attaches) are serialized on the control FIFO in
  // frame-arrival order, so session-id allocation — and therefore every
  // reply byte — must be independent of the shard count even when the
  // creates are pipelined with no await between them.
  std::vector<Bytes> burst;
  for (int i = 0; i < 6; ++i) {
    par::Writer w;
    if (i % 2 == 0) {
      encode_workload_spec(w, small_transient2d());
      burst.push_back(encode_frame(kOpCreateWorkload, w.take()));
    } else {
      FedAttach att;
      att.spec = small_transient2d();
      att.spec.parts = 2;
      att.rank = static_cast<std::uint16_t>(i % 4 == 1 ? 0 : 1);
      att.count = 2;
      encode_fed_attach(w, att);
      burst.push_back(encode_frame(kOpFedAttach, w.take()));
    }
  }
  const auto run = [&](int threads) {
    ServerOptions opt;
    opt.threads = threads;
    Server server(opt);
    const int fd = adopt_loopback_raw(server);
    EXPECT_GE(fd, 0);
    Bytes in;
    for (const Bytes& f : burst) EXPECT_TRUE(raw_send(fd, f, server));
    EXPECT_TRUE(recv_until(fd, server, in, burst.size()));
    // Close synchronously: session ops ride per-shard queues whose reply
    // interleaving across sessions is not part of the ordering contract.
    std::size_t expect = burst.size();
    for (std::uint32_t id = 1; id <= 6; ++id) {
      EXPECT_TRUE(raw_send(fd, frame_id(kOpCloseSession, id), server));
      EXPECT_TRUE(recv_until(fd, server, in, ++expect));
    }
    raw_close(fd);
    return in;
  };
  const Bytes reference = run(0);
  ASSERT_EQ(complete_frames(reference), burst.size() + 6);
  for (const int threads : {1, 2, 4})
    EXPECT_TRUE(run(threads) == reference) << "threads=" << threads;
}

TEST(SvcSharded, ManyPipelinedClientsKeepPerSessionOrderAndContent) {
  // Hundreds of concurrent loopback clients, each pipelining advance/step
  // bursts against its own session on a 4-shard server. Every connection
  // must get exactly its replies, in request order; and because the
  // post-create reply stream carries no session ids, all connections
  // running the same workload spec must read byte-identical streams — any
  // lost, reordered, cross-wired or nondeterministic reply breaks it.
  constexpr int kConns = 200;
  constexpr int kRounds = 3;
  constexpr int kSpecs = 8;

  ServerOptions opt;
  opt.threads = 4;
  opt.max_connections = kConns + 4;
  opt.limits.max_sessions = kConns + 4;
  Server server(opt);

  const auto spec_for = [](int group) {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kTransient2D;
    spec.parts = 2;
    spec.session_seed = 100 + static_cast<std::uint64_t>(group);
    spec.transient.steps = 16;
    spec.transient.grid_n = 4;
    spec.transient.max_level = 2;
    return spec;
  };

  struct ConnState {
    int fd = -1;
    std::uint32_t session = 0;
    Bytes in;
  };
  std::vector<ConnState> conns(kConns);
  for (auto& c : conns) {
    c.fd = adopt_loopback_raw(server);
    ASSERT_GE(c.fd, 0);
  }
  ASSERT_EQ(server.num_connections(), static_cast<std::size_t>(kConns));

  // Pipeline every create, then collect each session id and drop the
  // id-bearing create reply from the stream.
  for (int i = 0; i < kConns; ++i) {
    par::Writer w;
    encode_workload_spec(w, spec_for(i % kSpecs));
    ASSERT_TRUE(
        raw_send(conns[i].fd, encode_frame(kOpCreateWorkload, w.take()),
                 server));
  }
  for (auto& c : conns) {
    ASSERT_TRUE(recv_until(c.fd, server, c.in, 1));
    const auto h = decode_header(c.in.data());
    ASSERT_TRUE(h);
    ASSERT_EQ(h->type, kOpCreateWorkload | kReplyBit);
    par::TryReader r(c.in.data() + kHeaderBytes, h->payload_len);
    const auto id = r.get<std::uint32_t>();
    ASSERT_TRUE(id);
    c.session = *id;
    c.in.erase(c.in.begin(),
               c.in.begin() +
                   static_cast<std::ptrdiff_t>(kHeaderBytes + h->payload_len));
  }

  // Round-robin pipelined bursts: every shard sees interleaved traffic
  // from many sessions at once.
  for (int round = 0; round < kRounds; ++round) {
    for (auto& c : conns) {
      Bytes burst = frame_id(kOpAdvance, c.session);
      const Bytes step = frame_id(kOpStep, c.session);
      burst.insert(burst.end(), step.begin(), step.end());
      ASSERT_TRUE(raw_send(c.fd, burst, server));
    }
  }
  const std::size_t want = 2 * kRounds;
  for (auto& c : conns) ASSERT_TRUE(recv_until(c.fd, server, c.in, want));

  for (auto& c : conns) {
    ASSERT_EQ(complete_frames(c.in), want);  // nothing lost, nothing extra
    std::size_t off = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const int op : {kOpAdvance, kOpStep}) {
        const auto h = decode_header(c.in.data() + off);
        ASSERT_TRUE(h);
        EXPECT_EQ(h->type, static_cast<std::uint16_t>(op) | kReplyBit);
        off += kHeaderBytes + h->payload_len;
      }
    }
  }
  for (int i = 0; i < kConns; ++i)
    EXPECT_TRUE(conns[i].in == conns[i % kSpecs].in) << "conn " << i;
  for (auto& c : conns) raw_close(c.fd);
}

TEST(SvcSharded, PipelinedAdaptStepOnUploadedMeshesStaysConsistent) {
  // The uploaded-mesh flavor of the stress test: concurrent clients
  // pipeline explicit adapt marks plus repartition steps. Identical uploads
  // must yield byte-identical post-create reply streams.
  constexpr int kConns = 64;
  constexpr int kRounds = 4;

  ServerOptions opt;
  opt.threads = 4;
  opt.max_connections = kConns + 4;
  opt.limits.max_sessions = kConns + 4;
  Server server(opt);

  const auto mesh = mesh::structured_tri_mesh(4, 4, 0.25, 3);
  const FlatMesh flat = flatten_mesh(mesh);
  par::Writer cw;
  CreateHead head;
  head.parts = 2;
  head.session_seed = 5;
  encode_create_head(cw, head);
  encode_mesh(cw, flat);
  const Bytes create = encode_frame(kOpCreateMesh, cw.take());

  struct ConnState {
    int fd = -1;
    std::uint32_t session = 0;
    Bytes in;
  };
  std::vector<ConnState> conns(kConns);
  for (auto& c : conns) {
    c.fd = adopt_loopback_raw(server);
    ASSERT_GE(c.fd, 0);
    ASSERT_TRUE(raw_send(c.fd, create, server));
  }
  for (auto& c : conns) {
    ASSERT_TRUE(recv_until(c.fd, server, c.in, 1));
    const auto h = decode_header(c.in.data());
    ASSERT_TRUE(h);
    ASSERT_EQ(h->type, kOpCreateMesh | kReplyBit);
    par::TryReader r(c.in.data() + kHeaderBytes, h->payload_len);
    const auto id = r.get<std::uint32_t>();
    ASSERT_TRUE(id);
    c.session = *id;
    c.in.erase(c.in.begin(),
               c.in.begin() +
                   static_cast<std::ptrdiff_t>(kHeaderBytes + h->payload_len));
  }

  for (int round = 0; round < kRounds; ++round) {
    for (auto& c : conns) {
      par::Writer aw;
      aw.put(c.session);
      aw.put(std::uint8_t{0});  // refine
      aw.put_vector(std::vector<mesh::ElemIdx>{round, round + 1});
      Bytes burst = encode_frame(kOpAdapt, aw.take());
      const Bytes step = frame_id(kOpStep, c.session);
      burst.insert(burst.end(), step.begin(), step.end());
      ASSERT_TRUE(raw_send(c.fd, burst, server));
    }
  }
  const std::size_t want = 2 * kRounds;
  for (auto& c : conns) ASSERT_TRUE(recv_until(c.fd, server, c.in, want));

  for (auto& c : conns) {
    ASSERT_EQ(complete_frames(c.in), want);
    std::size_t off = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const int op : {kOpAdapt, kOpStep}) {
        const auto h = decode_header(c.in.data() + off);
        ASSERT_TRUE(h);
        EXPECT_EQ(h->type, static_cast<std::uint16_t>(op) | kReplyBit);
        off += kHeaderBytes + h->payload_len;
      }
    }
    EXPECT_TRUE(c.in == conns[0].in);
  }
  for (auto& c : conns) raw_close(c.fd);
}

TEST(SvcSharded, ShutdownDrainsInFlightRepliesBeforeTheAck) {
  // A pipelined burst ending in shutdown: the server must quiesce the
  // shards and deliver every accepted reply before the shutdown ack — no
  // accepted request may be answered kShuttingDown, and no reply may
  // arrive after the ack.
  ServerOptions opt;
  opt.threads = 2;
  Server server(opt);
  const int fd = adopt_loopback_raw(server);
  ASSERT_GE(fd, 0);

  par::Writer w;
  encode_workload_spec(w, small_transient2d());
  ASSERT_TRUE(raw_send(fd, encode_frame(kOpCreateWorkload, w.take()), server));
  Bytes in;
  ASSERT_TRUE(recv_until(fd, server, in, 1));
  in.clear();

  Bytes burst;
  for (int i = 0; i < 4; ++i) {
    const Bytes adv = frame_id(kOpAdvance, 1);
    burst.insert(burst.end(), adv.begin(), adv.end());
  }
  const Bytes bye = encode_frame(kOpShutdown, Bytes{});
  burst.insert(burst.end(), bye.begin(), bye.end());
  ASSERT_TRUE(raw_send(fd, burst, server));

  // 4 advances + the shutdown ack, in exactly that order.
  for (int spin = 0; spin < 500000 && complete_frames(in) < 5; ++spin)
    if (!raw_recv(fd, in, server)) break;
  ASSERT_EQ(complete_frames(in), 5u);
  std::size_t off = 0;
  for (int i = 0; i < 4; ++i) {
    const auto h = decode_header(in.data() + off);
    ASSERT_TRUE(h);
    EXPECT_EQ(h->type, kOpAdvance | kReplyBit);
    off += kHeaderBytes + h->payload_len;
  }
  const auto h = decode_header(in.data() + off);
  ASSERT_TRUE(h);
  EXPECT_EQ(h->type, kOpShutdown | kReplyBit);

  // The server closes the flushed connection and reports done.
  for (int spin = 0; spin < 500000 && !server.done(); ++spin)
    server.poll_once(0);
  EXPECT_TRUE(server.done());
  raw_close(fd);
}

// ---- reply transcript pin ---------------------------------------------------

/// One Registry driven by a fixed script; every reply's frame type and
/// bytes fold into an FNV-1a digest.
class Transcript {
 public:
  Reply call(std::uint16_t op, const Bytes& payload) {
    Reply reply = registry_.handle(op, payload);
    h_ = util::fnv1a_value(reply.type, h_);
    h_ = util::fnv1a_value(static_cast<std::uint64_t>(reply.payload.size()),
                           h_);
    h_ = util::fnv1a(reply.payload.data(), reply.payload.size(), h_);
    errors_ += reply.type == kTypeError;
    return reply;
  }
  Reply call_id(std::uint16_t op, std::uint32_t id) {
    return call(op, id_payload(id));
  }
  /// A create-like call that must succeed; returns the new session id.
  std::uint32_t create(std::uint16_t op, const Bytes& payload) {
    const Reply reply = call(op, payload);
    EXPECT_EQ(reply.type, op | kReplyBit) << op;
    par::TryReader r(reply.payload);
    const auto id = r.get<std::uint32_t>();
    EXPECT_TRUE(id);
    return id ? *id : 0;
  }
  std::uint64_t digest() const { return h_; }
  int errors() const { return errors_; }

 private:
  Registry registry_;
  std::uint64_t h_ = util::kFnvSeed;
  int errors_ = 0;
};

Bytes workload_payload(const WorkloadSpec& spec) {
  par::Writer w;
  encode_workload_spec(w, spec);
  return w.take();
}

Bytes attach_payload(const WorkloadSpec& spec, std::uint16_t rank) {
  par::Writer w;
  encode_fed_attach(w, FedAttach{spec, rank, 2});
  return w.take();
}

Bytes adapt_payload(std::uint32_t id, std::uint8_t mode,
                    const std::vector<mesh::ElemIdx>& marks) {
  par::Writer w;
  w.put(id);
  w.put(mode);
  w.put_vector(marks);
  return w.take();
}

/// One federated round over two shard sessions: advance, interface, a plan
/// that moves tree 0 to shard 1, both exchanges, commit.
void fed_round(Transcript& t, const std::uint32_t (&shard)[2],
               std::size_t roots) {
  for (const std::uint32_t id : shard) t.call_id(kOpFedAdvance, id);
  for (const std::uint32_t id : shard) t.call_id(kOpFedInterface, id);
  std::vector<part::PartId> next(roots);
  for (std::size_t c = 0; c < roots; ++c)
    next[c] = static_cast<part::PartId>(c % 2);
  next[0] = 1;
  FedPlanReply plans[2];
  for (int s = 0; s < 2; ++s) {
    par::Writer w;
    w.put(shard[s]);
    w.put_vector(next);
    const Reply reply = t.call(kOpFedPlan, w.take());
    ASSERT_EQ(reply.type, kOpFedPlan | kReplyBit);
    par::TryReader r(reply.payload);
    const auto plan = decode_fed_plan_reply(r, Limits{});
    ASSERT_TRUE(plan);
    plans[s] = *plan;
  }
  for (int s = 0; s < 2; ++s) {
    par::Writer w;
    w.put(shard[1 - s]);
    encode_fed_exchange(w, FedExchange{s, plans[s].outgoing});
    t.call(kOpFedExchange, w.take());
  }
  for (const std::uint32_t id : shard) t.call_id(kOpFedCommit, id);
}

// Pins the reply bytes of every op on every session kind, error replies
// included, and the restore of each kind's checkpoint: the registry's wire
// behaviour, which a refactor of its session states must leave unchanged.
TEST(RegistryPin, ReplyTranscript) {
  Transcript t;
  t.call(kOpPing, Bytes{1, 2, 3});

  // The four server-side workloads, over several strategies and engines.
  WorkloadSpec tr2 = small_transient2d();
  WorkloadSpec tr3;
  tr3.kind = WorkloadKind::kTransient3D;
  tr3.parts = 3;
  tr3.session_seed = 5;
  tr3.transient = pared::TransientRun3D::default_options();
  tr3.transient.steps = 4;
  tr3.transient.grid_n = 3;
  tr3.transient.max_level = 3;
  tr3.engine = wire_engine(engine::Kind::kSfcHilbert);
  WorkloadSpec c2;
  c2.kind = WorkloadKind::kCorner2D;
  c2.parts = 4;
  c2.corner_grid_n = 10;
  c2.engine = wire_engine(engine::Kind::kRib);
  WorkloadSpec c3;
  c3.kind = WorkloadKind::kCorner3D;
  c3.strategy = pared::Strategy::kMlkl;
  c3.parts = 2;
  c3.corner_grid_n = 4;
  std::vector<std::uint32_t> workloads;
  for (const WorkloadSpec& spec : {tr2, tr3, c2, c3})
    workloads.push_back(t.create(kOpCreateWorkload, workload_payload(spec)));

  // Uploaded meshes, 2D and 3D.
  std::vector<std::uint32_t> meshes;
  {
    CreateHead head;
    head.parts = 4;
    par::Writer w;
    encode_create_head(w, head);
    encode_mesh(w, flatten_mesh(mesh::structured_tri_mesh(6, 6, 0.25, 2)));
    meshes.push_back(t.create(kOpCreateMesh, w.take()));
  }
  {
    CreateHead head;
    head.strategy = pared::Strategy::kMlkl;
    head.parts = 2;
    head.session_seed = 3;
    par::Writer w;
    encode_create_head(w, head);
    encode_mesh(w, flatten_mesh(mesh::structured_tet_mesh(3, 3, 3, 0.2, 5)));
    meshes.push_back(t.create(kOpCreateMesh, w.take()));
  }

  // An uploaded graph with coordinates, defaulting to RIB.
  std::uint32_t graph_id = 0;
  {
    const auto m = mesh::structured_tri_mesh(8, 8, 0.25, 4);
    const auto dual = mesh::fine_dual_graph(m);
    CreateHead head;
    head.parts = 4;
    head.engine = wire_engine(engine::Kind::kRib);
    par::Writer w;
    encode_create_head(w, head);
    encode_graph(w, dual.graph);
    w.put(std::uint8_t{2});
    w.put_vector(mesh::leaf_centroids(m, dual.elems));
    graph_id = t.create(kOpCreateGraph, w.take());
  }

  // Two 2-shard federations, 2D and 3D.
  WorkloadSpec fed2 = small_transient2d();
  fed2.parts = 2;
  WorkloadSpec fed3 = tr3;
  fed3.parts = 2;
  const std::uint32_t fed2d[2] = {
      t.create(kOpFedAttach, attach_payload(fed2, 0)),
      t.create(kOpFedAttach, attach_payload(fed2, 1))};
  const std::uint32_t fed3d[2] = {
      t.create(kOpFedAttach, attach_payload(fed3, 0)),
      t.create(kOpFedAttach, attach_payload(fed3, 1))};

  for (int round = 0; round < 2; ++round) {
    for (const std::uint32_t id : workloads) {
      t.call_id(kOpAdvance, id);
      t.call_id(kOpStep, id);
      t.call_id(kOpGetMetrics, id);
      t.call_id(kOpGetAssignment, id);
    }
    for (const std::uint32_t id : meshes) {
      t.call_id(kOpStep, id);
      t.call(kOpAdapt, adapt_payload(id, 0, {2, 0, 1, 1}));
      t.call_id(kOpStep, id);
      t.call_id(kOpGetMetrics, id);
      std::vector<mesh::ElemIdx> all(24);
      for (std::size_t e = 0; e < all.size(); ++e)
        all[e] = static_cast<mesh::ElemIdx>(e);
      t.call(kOpAdapt, adapt_payload(id, 1, all));
      t.call_id(kOpGetAssignment, id);
    }
    for (const std::uint8_t eng :
         {kEngineDefault, wire_engine(engine::Kind::kSfcMorton),
          wire_engine(engine::Kind::kMlkl)}) {
      par::Writer w;
      w.put(graph_id);
      w.put(eng);
      t.call(kOpRepartition, w.take());
    }
    t.call_id(kOpGetMetrics, graph_id);
    t.call_id(kOpGetAssignment, graph_id);
    fed_round(t, fed2d, 2 * 10 * 10);
    fed_round(t, fed3d, 6 * 3 * 3 * 3);
    for (const std::uint32_t id : {fed2d[0], fed2d[1], fed3d[0], fed3d[1]}) {
      t.call_id(kOpGetMetrics, id);
      t.call_id(kOpGetAssignment, id);
    }
  }

  // Ops aimed at the wrong kind of session are typed errors.
  t.call_id(kOpAdvance, meshes[0]);
  t.call_id(kOpAdvance, graph_id);
  t.call_id(kOpAdvance, fed3d[0]);
  t.call_id(kOpStep, graph_id);
  t.call_id(kOpStep, fed2d[0]);
  t.call(kOpAdapt, adapt_payload(workloads[0], 0, {0}));
  t.call(kOpAdapt, adapt_payload(fed2d[1], 0, {0}));
  t.call(kOpAdapt, adapt_payload(meshes[1], 0, {1 << 20}));
  {
    par::Writer w;
    w.put(meshes[1]);
    w.put(kEngineDefault);
    t.call(kOpRepartition, w.take());
  }
  t.call_id(kOpFedAdvance, workloads[1]);
  t.call_id(kOpFedInterface, meshes[0]);
  t.call_id(kOpFedCommit, graph_id);
  t.call_id(kOpFedCommit, fed2d[0]);  // no plan staged
  t.call_id(kOpGetMetrics, 999);
  t.call(kOpListSessions, Bytes{});

  // Checkpoint every session, restore each checkpoint, and read back the
  // restored session.
  std::vector<std::uint32_t> all = workloads;
  all.insert(all.end(), meshes.begin(), meshes.end());
  all.push_back(graph_id);
  all.insert(all.end(), {fed2d[0], fed2d[1], fed3d[0], fed3d[1]});
  for (const std::uint32_t id : all) {
    const Reply ckpt = t.call_id(kOpCheckpoint, id);
    ASSERT_EQ(ckpt.type, kOpCheckpoint | kReplyBit);
    const std::uint32_t restored = t.create(kOpRestore, ckpt.payload);
    t.call_id(kOpGetMetrics, restored);
    t.call_id(kOpGetAssignment, restored);
  }
  t.call(kOpListSessions, Bytes{});
  t.call_id(kOpCloseSession, workloads[0]);
  t.call(kOpShutdown, Bytes{});
  t.call_id(kOpStep, workloads[1]);

  EXPECT_EQ(t.errors(), 15);  // exactly the deliberate ones above
  EXPECT_EQ(t.digest(), 13871576465141288155ull);
}

}  // namespace
}  // namespace pnr::svc
