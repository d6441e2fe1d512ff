// End-to-end tests for the spmvoptd server subsystem (DESIGN.md §9):
// protocol codec round-trips and truncation, the plan cache's amortization
// ladder (hot / warm / persist / miss), eviction under a byte budget,
// overload shedding and rejection, the socket transport with concurrent
// clients (the TSan shard exercises this), and the server fault points.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "gen/generators.hpp"
#include "robust/cancel.hpp"
#include "robust/fault_inject.hpp"
#include "server/client.hpp"
#include "server/plan_cache.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/fingerprint.hpp"
#include "verify/oracle.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

namespace spmvopt::server {
namespace {

namespace fs = std::filesystem;

CsrMatrix small_matrix(std::uint64_t seed = 7) {
  return gen::random_uniform(200, 6, seed);
}

/// An IMB monster-row matrix heavy enough that a multi-vector run over it
/// takes tens of milliseconds — comfortably longer than the short deadlines
/// the cancellation tests arm, comfortably shorter than a test timeout.
CsrMatrix heavy_matrix() { return gen::monster_row(50'000, 50'000, 8, 0, 7); }

std::vector<value_t> heavy_rhs(const CsrMatrix& a, int nrhs) {
  std::vector<value_t> X;
  X.reserve(static_cast<std::size_t>(a.ncols()) * static_cast<std::size_t>(nrhs));
  for (int r = 0; r < nrhs; ++r) {
    const auto x = gen::test_vector(a.ncols(), 7 + static_cast<std::uint64_t>(r));
    X.insert(X.end(), x.begin(), x.end());
  }
  return X;
}

/// A unique, auto-cleaned directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("spmvopt_server_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

void expect_ulp_match(const CsrMatrix& A, std::span<const value_t> x,
                      std::span<const value_t> y) {
  const auto report = verify::check_spmv(A, x, y);
  EXPECT_TRUE(report.pass()) << report.to_string();
}

template <class R>
R expect_reply(const Reply& reply) {
  const R* r = std::get_if<R>(&reply);
  if (r == nullptr) {
    const auto* err = std::get_if<ErrorReply>(&reply);
    ADD_FAILURE() << "unexpected reply type"
                  << (err ? ": " + err->message : std::string());
    return R{};
  }
  return *r;
}

ErrorReply expect_error(const Reply& reply, ErrorCategory category) {
  const auto* err = std::get_if<ErrorReply>(&reply);
  if (err == nullptr) {
    ADD_FAILURE() << "expected an ErrorReply";
    return ErrorReply{};
  }
  EXPECT_EQ(static_cast<int>(err->category), static_cast<int>(category))
      << error_category_name(err->category) << ": " << err->message;
  return *err;
}

// ------------------------------------------------------------------- codec

TEST(Protocol, RequestsRoundTrip) {
  const CsrMatrix a = small_matrix();
  const Fingerprint fp = fingerprint_of(a);

  {
    auto r = decode_request(encode_request(SubmitRequest{a}));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    const auto& req = std::get<SubmitRequest>(r.value().request);
    EXPECT_TRUE(req.matrix.equals(a));
  }
  {
    RunRequest in;
    in.fp = fp;
    in.x = {1.0, -2.5, 3.25};
    auto r = decode_request(encode_request(in));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    const auto& req = std::get<RunRequest>(r.value().request);
    EXPECT_EQ(req.fp, fp);
    EXPECT_EQ(req.x, in.x);
  }
  {
    RunManyRequest in;
    in.fp = fp;
    in.nrhs = 2;
    in.X = {1.0, 2.0, 3.0, 4.0};
    auto r = decode_request(encode_request(in));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    const auto& req = std::get<RunManyRequest>(r.value().request);
    EXPECT_EQ(req.nrhs, 2);
    EXPECT_EQ(req.X, in.X);
  }
  {
    SolveRequest in;
    in.fp = fp;
    in.method = SolveMethod::Bicgstab;
    in.max_iterations = 321;
    in.rel_tolerance = 1e-6;
    in.b = {0.5, 0.25};
    auto r = decode_request(encode_request(in));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    const auto& req = std::get<SolveRequest>(r.value().request);
    EXPECT_EQ(req.method, SolveMethod::Bicgstab);
    EXPECT_EQ(req.max_iterations, 321);
    EXPECT_DOUBLE_EQ(req.rel_tolerance, 1e-6);
    EXPECT_EQ(req.b, in.b);
  }
  for (const Request& in :
       {Request(StatsRequest{}), Request(PingRequest{}),
        Request(ShutdownRequest{}), Request(CancelRequest{99})}) {
    auto r = decode_request(encode_request(in));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(r.value().request.index(), in.index());
  }
}

TEST(Protocol, EnvelopeCarriesIdAndDeadline) {
  // The v2 envelope: request_id and deadline_ms survive the codec, and a
  // reply echoes the id of the request it answers.
  RunRequest in;
  in.fp = fingerprint_of(small_matrix());
  in.x = {1.0, 2.0};
  const RequestHeader hdr{0xDEADBEEFCAFEull, 1500};
  const std::string payload = encode_request(Request(in), hdr);

  const auto peeked = peek_request_header(payload);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->request_id, hdr.request_id);
  EXPECT_EQ(peeked->deadline_ms, hdr.deadline_ms);

  auto r = decode_request(payload);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().header.request_id, hdr.request_id);
  EXPECT_EQ(r.value().header.deadline_ms, hdr.deadline_ms);

  auto rep = decode_reply(encode_reply(PongReply{}, hdr.request_id));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().request_id, hdr.request_id);
}

TEST(Protocol, V1PayloadIsATypedVersionRejection) {
  // A pre-v2 frame starts with its raw type byte (Ping = 6), not the 0xA2
  // magic.  It must decode to a Format error naming the mismatch — a typed
  // rejection an old client can log, never a misparse.
  std::string v1_ping(1, static_cast<char>(6));
  auto r = decode_request(v1_ping);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().category(), ErrorCategory::Format);
  EXPECT_NE(r.error().message().find("v1"), std::string::npos)
      << r.error().message();
  // peek still routes it (raw v1 type byte) so the reader can reply.
  EXPECT_EQ(peek_type(v1_ping), MsgType::Ping);
  EXPECT_FALSE(peek_request_header(v1_ping).has_value());
}

TEST(Protocol, CancelRoundTripsWithItsTarget) {
  auto r = decode_request(encode_request(CancelRequest{1234}));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(std::get<CancelRequest>(r.value().request).target_id, 1234u);

  CancelReply in;
  in.outcome = CancelReply::Outcome::Running;
  auto rep = decode_reply(encode_reply(in, 7));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(std::get<CancelReply>(rep.value().reply).outcome,
            CancelReply::Outcome::Running);
  EXPECT_EQ(rep.value().request_id, 7u);
}

TEST(Protocol, RepliesRoundTrip) {
  {
    SubmitReply in;
    in.fp = fingerprint_of(small_matrix());
    in.state = CacheState::Warm;
    in.plan = "pf+unroll-vec";
    in.pre_seconds = 0.125;
    auto r = decode_reply(encode_reply(in));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    const auto& rep = std::get<SubmitReply>(r.value().reply);
    EXPECT_EQ(rep.fp, in.fp);
    EXPECT_EQ(rep.state, CacheState::Warm);
    EXPECT_EQ(rep.plan, in.plan);
    EXPECT_DOUBLE_EQ(rep.pre_seconds, 0.125);
  }
  {
    auto r = decode_reply(encode_reply(RunReply{{1.0, 2.0, -3.0}}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(std::get<RunReply>(r.value().reply).y,
              (std::vector<value_t>{1.0, 2.0, -3.0}));
  }
  {
    SolveReply in;
    in.converged = true;
    in.iterations = 17;
    in.residual = 1e-9;
    in.x = {4.0, 5.0};
    auto r = decode_reply(encode_reply(in));
    ASSERT_TRUE(r.ok());
    const auto& rep = std::get<SolveReply>(r.value().reply);
    EXPECT_TRUE(rep.converged);
    EXPECT_EQ(rep.iterations, 17);
    EXPECT_EQ(rep.x, in.x);
  }
  {
    auto r = decode_reply(encode_reply(
        ErrorReply{ErrorCategory::Resource, /*retryable=*/true, "too big"}));
    ASSERT_TRUE(r.ok());
    const auto& rep = std::get<ErrorReply>(r.value().reply);
    EXPECT_EQ(rep.category, ErrorCategory::Resource);
    EXPECT_TRUE(rep.retryable);
    EXPECT_EQ(rep.message, "too big");
  }
  {
    auto r = decode_reply(encode_reply(PongReply{}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(std::get<PongReply>(r.value().reply).protocol_version,
              kProtocolVersion);
  }
}

TEST(Protocol, TruncatedPayloadIsARejectedDecode) {
  RunRequest in;
  in.fp = fingerprint_of(small_matrix());
  in.x = {1.0, 2.0, 3.0, 4.0};
  const std::string full = encode_request(in);
  ASSERT_TRUE(decode_request(full).ok());
  // Every strict prefix must be rejected, never crash or mis-parse.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    auto r = decode_request(full.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(Protocol, TrailingGarbageIsAFormatError) {
  const std::string payload = encode_request(PingRequest{}) + "xx";
  auto r = decode_request(payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().category(), ErrorCategory::Format);
}

TEST(Protocol, UnknownTypeByteIsAFormatError) {
  std::string payload(1, static_cast<char>(0x33));
  auto r = decode_request(payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().category(), ErrorCategory::Format);
  EXPECT_FALSE(decode_reply(payload).ok());
}

TEST(Protocol, PeekTypeReadsTheLeadingByte) {
  EXPECT_EQ(peek_type(encode_request(PingRequest{})), MsgType::Ping);
  EXPECT_EQ(peek_type(encode_reply(PongReply{})), MsgType::Pong);
  EXPECT_EQ(peek_type(""), std::nullopt);
}

TEST(Protocol, FramesTraverseASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = encode_request(PingRequest{});
  ASSERT_TRUE(write_frame(fds[0], payload).ok());
  auto got = read_frame(fds[1]);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  ASSERT_TRUE(got.value().has_value());
  EXPECT_EQ(*got.value(), payload);
  // Closing the writer yields a clean EOF (nullopt), not an error.
  ::close(fds[0]);
  auto eof = read_frame(fds[1]);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
  ::close(fds[1]);
}

// ---------------------------------------------------- in-process SpmvServer

ServerConfig memory_only_config() {
  ServerConfig cfg;
  cfg.engine_threads = 2;
  return cfg;
}

TEST(SpmvServer, SubmitMissThenHotSkipsThePipeline) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = small_matrix();

  const auto first =
      expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  EXPECT_EQ(first.state, CacheState::Miss);
  EXPECT_EQ(first.fp, fingerprint_of(a));
  EXPECT_FALSE(first.plan.empty());

  const auto second =
      expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  EXPECT_EQ(second.state, CacheState::Hot);
  EXPECT_EQ(second.plan, first.plan);
  // The acceptance criterion: a warm job pays zero preprocessing — no
  // feature extraction, no classification, no conversion.
  EXPECT_EQ(second.pre_seconds, 0.0);

  const ServerStats st = srv.stats();
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_GE(st.cache.hot_hits, 1u);
  EXPECT_EQ(st.submits, 2u);
  EXPECT_EQ(st.errors, 0u);
}

TEST(SpmvServer, SamePatternNewValuesIsAWarmHit) {
  SpmvServer srv(memory_only_config());
  CsrMatrix a = small_matrix();
  const auto first = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  EXPECT_EQ(first.state, CacheState::Miss);

  // Perturb the values only: the structure fingerprint is unchanged, so the
  // plan is reused (no re-classification) but conversion re-runs.
  for (index_t k = 0; k < a.nnz(); ++k) a.values_mut()[k] *= 1.5;
  const auto second = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  EXPECT_EQ(second.state, CacheState::Warm);
  EXPECT_EQ(second.plan, first.plan);
  EXPECT_NE(second.fp, first.fp);
  EXPECT_TRUE(second.fp.same_structure(first.fp));
  EXPECT_EQ(srv.stats().cache.warm_hits, 1u);
}

TEST(SpmvServer, MergePlanMatrixHotAndWarmAndCorrect) {
  // An IMB monster-row matrix routes to the merge-path kernel; the plan must
  // survive the cache ladder (miss → hot → warm) and the engine-bound merge
  // execution must match the oracle.
  SpmvServer srv(memory_only_config());
  CsrMatrix a = gen::monster_row(512, 512, 1, 0, 7);

  const auto first = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  EXPECT_EQ(first.state, CacheState::Miss);
  EXPECT_NE(first.plan.find("merge"), std::string::npos) << first.plan;

  RunRequest run;
  run.fp = first.fp;
  run.x = gen::test_vector(a.ncols());
  const auto& rep = expect_reply<RunReply>(srv.handle(run));
  ASSERT_EQ(static_cast<index_t>(rep.y.size()), a.nrows());
  expect_ulp_match(a, run.x, rep.y);

  const auto hot = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  EXPECT_EQ(hot.state, CacheState::Hot);
  EXPECT_EQ(hot.plan, first.plan);
  EXPECT_EQ(hot.pre_seconds, 0.0);

  // Same structure, new values: warm hit reuses the merge plan without
  // re-classifying.
  for (index_t k = 0; k < a.nnz(); ++k) a.values_mut()[k] *= 2.0;
  const auto warm = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  EXPECT_EQ(warm.state, CacheState::Warm);
  EXPECT_EQ(warm.plan, first.plan);
  RunRequest run2;
  run2.fp = warm.fp;
  run2.x = run.x;
  const auto& rep2 = expect_reply<RunReply>(srv.handle(run2));
  expect_ulp_match(a, run2.x, rep2.y);
}

TEST(SpmvServer, RunMatchesTheUlpOracle) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = gen::stencil_2d_5pt(24, 24);
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  RunRequest run;
  run.fp = sub.fp;
  run.x = gen::test_vector(a.ncols());
  const auto& rep = expect_reply<RunReply>(srv.handle(run));
  ASSERT_EQ(static_cast<index_t>(rep.y.size()), a.nrows());
  expect_ulp_match(a, run.x, rep.y);
}

TEST(SpmvServer, RunManyMatchesTheUlpOracle) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = small_matrix(11);
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  RunManyRequest rm;
  rm.fp = sub.fp;
  rm.nrhs = 3;
  const auto ncols = static_cast<std::size_t>(a.ncols());
  for (int r = 0; r < rm.nrhs; ++r) {
    const auto x = gen::test_vector(a.ncols(), 100 + r);
    rm.X.insert(rm.X.end(), x.begin(), x.end());
  }
  const auto& rep = expect_reply<RunManyReply>(srv.handle(rm));
  ASSERT_EQ(rep.nrhs, 3);
  const auto nrows = static_cast<std::size_t>(a.nrows());
  ASSERT_EQ(rep.Y.size(), 3 * nrows);
  for (int r = 0; r < 3; ++r)
    expect_ulp_match(
        a, std::span(rm.X).subspan(r * ncols, ncols),
        std::span(rep.Y).subspan(static_cast<std::size_t>(r) * nrows, nrows));
}

TEST(SpmvServer, CgSolveConvergesOnAStencil) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = gen::stencil_2d_5pt(16, 16);  // SPD
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  SolveRequest sr;
  sr.fp = sub.fp;
  sr.method = SolveMethod::Cg;
  sr.b.assign(static_cast<std::size_t>(a.nrows()), 1.0);
  const auto& rep = expect_reply<SolveReply>(srv.handle(sr));
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(rep.iterations, 0);

  // Check the residual claim independently: ||b - A x|| / ||b|| small.
  std::vector<value_t> ax(static_cast<std::size_t>(a.nrows()));
  a.multiply(rep.x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    rr += (sr.b[i] - ax[i]) * (sr.b[i] - ax[i]);
    bb += sr.b[i] * sr.b[i];
  }
  EXPECT_LT(rr, 1e-12 * bb);
}

TEST(SpmvServer, UnknownFingerprintIsAFormatError) {
  SpmvServer srv(memory_only_config());
  RunRequest run;
  run.fp = fingerprint_of(small_matrix());
  run.x.assign(static_cast<std::size_t>(small_matrix().ncols()), 1.0);
  expect_error(srv.handle(run), ErrorCategory::Format);
  EXPECT_EQ(srv.stats().errors, 1u);
}

TEST(SpmvServer, MismatchedOperandSizesAreFormatErrors) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = small_matrix();
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  RunRequest run;
  run.fp = sub.fp;
  run.x = {1.0};  // wrong length
  expect_error(srv.handle(run), ErrorCategory::Format);

  SolveRequest sr;
  sr.fp = sub.fp;
  sr.b = {1.0};
  expect_error(srv.handle(sr), ErrorCategory::Format);
}

TEST(SpmvServer, StatsReplyIsStructuredJson) {
  SpmvServer srv(memory_only_config());
  (void)srv.handle(SubmitRequest{small_matrix()});
  const auto& rep = expect_reply<StatsReply>(srv.handle(StatsRequest{}));
  EXPECT_NE(rep.json.find("\"schema\": \"spmvopt-server-stats/v2\""),
            std::string::npos);
  EXPECT_NE(rep.json.find("\"misses\": 1"), std::string::npos);
}

TEST(SpmvServer, ShutdownRequestSetsTheFlag) {
  SpmvServer srv(memory_only_config());
  EXPECT_FALSE(srv.shutdown_requested());
  (void)expect_reply<ShutdownReply>(srv.handle(ShutdownRequest{}));
  EXPECT_TRUE(srv.shutdown_requested());
}

// -------------------------------------------------- eviction and admission

TEST(SpmvServer, EvictionUnderATinyByteBudget) {
  const CsrMatrix a = small_matrix(1);
  const CsrMatrix b = small_matrix(2);

  ServerConfig cfg = memory_only_config();
  // Budget fits one matrix (CSR + optimized form), never two.
  cfg.cache.max_resident_bytes = 3 * a.format_bytes();
  SpmvServer srv(cfg);

  const auto sa = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));
  (void)expect_reply<SubmitReply>(srv.handle(SubmitRequest{b}));
  const ServerStats st = srv.stats();
  EXPECT_GE(st.cache.evictions, 1u);
  EXPECT_LE(st.cache.resident_bytes, cfg.cache.max_resident_bytes);

  // The evicted matrix is gone (memory-only tier): typed Format error.
  RunRequest run;
  run.fp = sa.fp;
  run.x.assign(static_cast<std::size_t>(a.ncols()), 1.0);
  expect_error(srv.handle(run), ErrorCategory::Format);
}

TEST(SpmvServer, MatrixOverTheBudgetIsAResourceError) {
  ServerConfig cfg = memory_only_config();
  cfg.cache.max_resident_bytes = 64;  // nothing real fits
  SpmvServer srv(cfg);
  expect_error(srv.handle(SubmitRequest{small_matrix()}),
               ErrorCategory::Resource);
}

TEST(SpmvServer, ShedSubmitRunsTheBaselinePlan) {
  SpmvServer srv(memory_only_config());
  const auto rep = expect_reply<SubmitReply>(
      srv.handle(SubmitRequest{small_matrix()}, /*shed=*/true));
  // The degradation ladder's middle rung: admitted, but with the
  // classification stage skipped — the always-valid baseline CSR plan.
  EXPECT_EQ(rep.plan, "baseline");
  EXPECT_EQ(srv.stats().shed_submits, 1u);
  EXPECT_EQ(srv.stats().cache.misses, 0u);  // classification never ran
}

// ------------------------------------------------------- persistent tier

TEST(SpmvServer, PersistentTierSurvivesARestart) {
  TempDir dir("persist");
  ServerConfig cfg = memory_only_config();
  cfg.cache.persist_dir = dir.str();

  const CsrMatrix a = small_matrix(5);
  Fingerprint fp;
  {
    SpmvServer first(cfg);
    fp = expect_reply<SubmitReply>(first.handle(SubmitRequest{a})).fp;
    EXPECT_EQ(first.stats().cache.misses, 1u);
  }

  // A fresh server (fresh memory tier) can run the fingerprint directly:
  // matrix and plan come back from disk, classification does not re-run.
  SpmvServer second(cfg);
  RunRequest run;
  run.fp = fp;
  run.x = gen::test_vector(a.ncols());
  const auto& rep = expect_reply<RunReply>(second.handle(run));
  expect_ulp_match(a, run.x, rep.y);
  const ServerStats st = second.stats();
  EXPECT_EQ(st.cache.persist_hits, 1u);
  EXPECT_EQ(st.cache.misses, 0u);

  // And a re-submit after eviction lands on the warm plan file, not a miss.
  second.cache().evict_all();
  const auto resub = expect_reply<SubmitReply>(second.handle(SubmitRequest{a}));
  EXPECT_EQ(resub.state, CacheState::Warm);
}

TEST(SpmvServer, EvictedEntryReloadsFromDisk) {
  TempDir dir("reload");
  ServerConfig cfg = memory_only_config();
  cfg.cache.persist_dir = dir.str();
  SpmvServer srv(cfg);

  const CsrMatrix a = small_matrix(6);
  const auto fp = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a})).fp;
  srv.cache().evict_all();

  RunRequest run;
  run.fp = fp;
  run.x = gen::test_vector(a.ncols());
  const auto& rep = expect_reply<RunReply>(srv.handle(run));
  expect_ulp_match(a, run.x, rep.y);
  EXPECT_EQ(srv.stats().cache.persist_hits, 1u);
}

// ------------------------------------------------------- socket transport

class SocketFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = (fs::temp_directory_path() /
                    ("spmvoptd_test_" + std::to_string(::getpid()) + ".sock"))
                       .string();
    ServerConfig cfg = memory_only_config();
    configure(cfg);
    core_ = std::make_unique<SpmvServer>(cfg);
    sock_ = std::make_unique<SocketServer>(*core_, socket_path_);
    auto started = sock_->start();
    ASSERT_TRUE(started.ok()) << started.error().to_string();
  }
  void TearDown() override {
    if (sock_) sock_->stop();
  }
  virtual void configure(ServerConfig&) {}

  Client connect() {
    auto c = Client::connect(socket_path_);
    if (!c.ok()) {
      // Cannot ASSERT from a non-void helper; a missing server makes every
      // downstream expectation meaningless, so fail hard.
      ADD_FAILURE() << c.error().to_string();
      std::abort();
    }
    return std::move(c.value());
  }

  std::string socket_path_;
  std::unique_ptr<SpmvServer> core_;
  std::unique_ptr<SocketServer> sock_;
};

TEST_F(SocketFixture, FullSessionOverTheSocket) {
  Client c = connect();
  ASSERT_TRUE(c.ping().ok());

  const CsrMatrix a = gen::stencil_2d_5pt(20, 20);
  auto sub = c.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  EXPECT_EQ(sub.value().state, CacheState::Miss);

  const auto x = gen::test_vector(a.ncols());
  auto y = c.run(sub.value().fp, x);
  ASSERT_TRUE(y.ok()) << y.error().to_string();
  expect_ulp_match(a, x, y.value());

  auto sub2 = c.submit(a);
  ASSERT_TRUE(sub2.ok());
  EXPECT_EQ(sub2.value().state, CacheState::Hot);

  auto stats = c.stats_json();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("spmvopt-server-stats/v2"), std::string::npos);

  ASSERT_TRUE(c.shutdown_server().ok());
  sock_->wait();  // returns because the shutdown request stopped the loop
}

TEST_F(SocketFixture, ServerSideErrorsComeBackTyped) {
  Client c = connect();
  RunRequest run;
  run.fp = fingerprint_of(small_matrix());
  auto y = c.run(run.fp, std::vector<value_t>(200, 1.0));
  ASSERT_FALSE(y.ok());
  EXPECT_EQ(y.error().category(), ErrorCategory::Format);
  // The error did not tear down the session.
  EXPECT_TRUE(c.ping().ok());
}

TEST_F(SocketFixture, ConcurrentClientsGetCorrectAnswers) {
  constexpr int kClients = 4;
  constexpr int kRuns = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, t, &failures] {
      auto c = Client::connect(socket_path_);
      if (!c.ok()) {
        ++failures;
        return;
      }
      // Half the clients share a matrix (hot-path contention), half bring
      // their own (eviction-free coexistence).
      const CsrMatrix a = small_matrix(t % 2 == 0 ? 42 : 1000 + t);
      auto sub = c.value().submit(a);
      if (!sub.ok()) {
        ++failures;
        return;
      }
      const auto x = gen::test_vector(a.ncols(), 7 + t);
      for (int r = 0; r < kRuns; ++r) {
        auto y = c.value().run(sub.value().fp, x);
        if (!y.ok() || !verify::check_spmv(a, x, y.value()).pass()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(core_->stats().runs, static_cast<std::uint64_t>(kClients * kRuns));
}

class RejectingSocketFixture : public SocketFixture {
 protected:
  void configure(ServerConfig& cfg) override {
    cfg.max_in_flight = 0;  // every job is refused at admission
  }
};

TEST_F(RejectingSocketFixture, OverloadedServerRejectsWithResource) {
  Client c = connect();
  auto sub = c.submit(small_matrix());
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().category(), ErrorCategory::Resource);
  EXPECT_NE(sub.error().message().find("overloaded"), std::string::npos);
  EXPECT_GE(core_->stats().rejected_overload, 1u);
  // Rejection is per-job, not per-connection: the session stays usable (and
  // stays rejected, deterministically).
  auto again = c.submit(small_matrix());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().category(), ErrorCategory::Resource);
}

class SheddingSocketFixture : public SocketFixture {
 protected:
  void configure(ServerConfig& cfg) override {
    cfg.shed_in_flight = 0;  // every submit sheds to the baseline plan
  }
};

TEST_F(SheddingSocketFixture, OverloadedSubmitsShedToBaseline) {
  Client c = connect();
  auto sub = c.submit(small_matrix());
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  EXPECT_EQ(sub.value().plan, "baseline");
  EXPECT_GE(core_->stats().shed_submits, 1u);
}

// -------------------------------------------------------- fault injection

TEST(ServerFaults, FrameTruncationYieldsATypedFormatError) {
  if (!robust::fault_injection_enabled())
    GTEST_SKIP() << "built without SPMVOPT_FAULT_INJECTION";
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RunRequest run;
  run.fp = fingerprint_of(small_matrix());
  run.x = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(write_frame(fds[0], encode_request(run)).ok());

  robust::fault_arm("server.frame_truncate");
  auto frame = read_frame(fds[1]);
  robust::fault_disarm_all();
  // The frame arrives (stream stays synchronized) but its payload was cut:
  // the decode stage must reject it as Format, not crash or mis-parse.
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  ASSERT_TRUE(frame.value().has_value());
  auto req = decode_request(*frame.value());
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.error().category(), ErrorCategory::Format);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ------------------------------------------- deadlines and cancellation

TEST(SpmvServer, ExpiredTokenStopsARunBeforeItStarts) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = small_matrix();
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  RunRequest run;
  run.fp = sub.fp;
  run.x = gen::test_vector(a.ncols());
  const auto tok = robust::CancelToken::after_seconds(0.0);
  const auto err = expect_error(srv.handle(run, false, &tok),
                                ErrorCategory::DeadlineExceeded);
  EXPECT_FALSE(err.retryable);
  EXPECT_EQ(srv.stats().deadline_exceeded, 1u);
}

TEST(SpmvServer, CancelledTokenAbortsASolveWithProgressContext) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = gen::stencil_2d_5pt(16, 16);
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  SolveRequest sr;
  sr.fp = sub.fp;
  sr.method = SolveMethod::Cg;
  sr.b.assign(static_cast<std::size_t>(a.nrows()), 1.0);
  robust::CancelToken tok;
  tok.cancel();
  const auto err =
      expect_error(srv.handle(sr, false, &tok), ErrorCategory::Cancelled);
  EXPECT_NE(err.message.find("iteration"), std::string::npos) << err.message;
  EXPECT_EQ(srv.stats().cancelled, 1u);
}

TEST(SpmvServer, DeadlineTripsMidSolveWellBeforeTheFullRun) {
  // A CG solve that would grind through max_iterations (the tolerance is
  // unreachable) must instead surface DeadlineExceeded within the deadline
  // plus a few iteration quanta — not after the full iteration budget.
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = gen::stencil_2d_5pt(128, 128);
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  SolveRequest sr;
  sr.fp = sub.fp;
  sr.method = SolveMethod::Cg;
  sr.max_iterations = 1'000'000;
  sr.rel_tolerance = 1e-300;
  sr.b.assign(static_cast<std::size_t>(a.nrows()), 1.0);

  const auto tok = robust::CancelToken::after_ms(20);
  const auto t0 = std::chrono::steady_clock::now();
  const Reply reply = srv.handle(sr, false, &tok);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto err = expect_error(reply, ErrorCategory::DeadlineExceeded);
  EXPECT_NE(err.message.find("iteration"), std::string::npos) << err.message;
  // One iteration on a 16k-unknown stencil is far under a second; an entire
  // uncancelled run would be tens of seconds.
  EXPECT_LT(elapsed, 5.0);
  EXPECT_EQ(srv.stats().deadline_exceeded, 1u);
}

TEST(SpmvServer, DeadlineTripsMidRunManyOnAMonsterRow) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = heavy_matrix();
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  RunManyRequest rm;
  rm.fp = sub.fp;
  rm.nrhs = 96;
  rm.X = heavy_rhs(a, rm.nrhs);
  const auto tok = robust::CancelToken::after_ms(10);
  const auto t0 = std::chrono::steady_clock::now();
  const Reply reply = srv.handle(rm, false, &tok);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto err = expect_error(reply, ErrorCategory::DeadlineExceeded);
  EXPECT_FALSE(err.retryable);
  // The 10 ms budget plus chunk-granularity slack; never the full sweep.
  EXPECT_LT(elapsed, 5.0);
}

TEST(SpmvServer, InProcessCancelRequestAnswersUnknown) {
  // cancel(request_id) is resolved by the transport layer; the core has no
  // queue, so a cancel that reaches handle() truthfully answers Unknown.
  SpmvServer srv(memory_only_config());
  const auto rep = expect_reply<CancelReply>(srv.handle(CancelRequest{42}));
  EXPECT_EQ(rep.outcome, CancelReply::Outcome::Unknown);
}

TEST(SpmvServer, StatsJsonCarriesTheSelfHealingCounters) {
  SpmvServer srv(memory_only_config());
  const auto& rep = expect_reply<StatsReply>(srv.handle(StatsRequest{}));
  EXPECT_NE(rep.json.find("\"deadline_exceeded\""), std::string::npos);
  EXPECT_NE(rep.json.find("\"cancelled\""), std::string::npos);
  EXPECT_NE(rep.json.find("\"expired_in_queue\""), std::string::npos);
  EXPECT_NE(rep.json.find("\"watchdog_fires\""), std::string::npos);
  EXPECT_NE(rep.json.find("\"recycles\""), std::string::npos);
}

TEST(SpmvServer, RecycleEngineRespawnsTheTeam) {
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = small_matrix();
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  ASSERT_TRUE(srv.recycle_engine("test-initiated recycle"));
  EXPECT_EQ(srv.stats().engine_recycles, 1u);
  EXPECT_EQ(srv.stats().engine_recycle_failures, 0u);
  EXPECT_FALSE(srv.health().entries().empty());

  // The recycled team still computes correct answers.
  RunRequest run;
  run.fp = sub.fp;
  run.x = gen::test_vector(a.ncols());
  const auto& rep = expect_reply<RunReply>(srv.handle(run));
  expect_ulp_match(a, run.x, rep.y);
}

TEST(SpmvServer, PlanCacheFlushRewritesResidentEntries) {
  TempDir dir("flush");
  ServerConfig cfg = memory_only_config();
  cfg.cache.persist_dir = dir.str();
  SpmvServer srv(cfg);
  (void)expect_reply<SubmitReply>(srv.handle(SubmitRequest{small_matrix(21)}));
  (void)expect_reply<SubmitReply>(srv.handle(SubmitRequest{small_matrix(22)}));

  // Wipe the persistent tier behind the server's back; flush must restore
  // every resident entry (the drain path relies on this).
  for (const auto& e : fs::directory_iterator(dir.path()))
    fs::remove_all(e.path());
  ASSERT_TRUE(fs::is_empty(dir.path()));
  EXPECT_EQ(srv.cache().flush(), 2u);
  EXPECT_FALSE(fs::is_empty(dir.path()));
}

// ------------------------------------------------- retrying client policy

TEST(ClientRetry, BackoffScheduleIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_delay_ms = 10.0;
  policy.max_delay_ms = 100.0;
  policy.seed = 1234;

  const auto a = backoff_schedule_ms(policy, 77, policy.max_attempts);
  const auto b = backoff_schedule_ms(policy, 77, policy.max_attempts);
  ASSERT_EQ(a.size(), 5u);  // attempts - 1 sleeps
  EXPECT_EQ(a, b);  // pure function of (seed, request_id)

  double prev = policy.base_delay_ms;
  for (const double d : a) {
    EXPECT_GE(d, policy.base_delay_ms * 0.0);  // non-negative
    EXPECT_LE(d, policy.max_delay_ms);
    EXPECT_LE(d, std::max(policy.base_delay_ms, prev * 3.0));
    prev = d;
  }

  // Different request ids decorrelate: the streams differ somewhere.
  const auto other = backoff_schedule_ms(policy, 78, policy.max_attempts);
  EXPECT_NE(a, other);
}

// ------------------------------------------------------- socket transport

TEST(ServerFaults, EvictionDuringARunningJobIsSafe) {
  if (!robust::fault_injection_enabled())
    GTEST_SKIP() << "built without SPMVOPT_FAULT_INJECTION";
  SpmvServer srv(memory_only_config());
  const CsrMatrix a = small_matrix(9);
  const auto sub = expect_reply<SubmitReply>(srv.handle(SubmitRequest{a}));

  RunRequest run;
  run.fp = sub.fp;
  run.x = gen::test_vector(a.ncols());
  robust::fault_arm("server.evict_during_run");
  const auto& rep = expect_reply<RunReply>(srv.handle(run));
  robust::fault_disarm_all();
  // The whole cache was evicted mid-job; the in-flight entry must have
  // stayed alive (shared ownership) and produced the right answer.
  expect_ulp_match(a, run.x, rep.y);
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.cache.entries, 0u);
  EXPECT_GE(st.cache.evictions, 1u);
}

// -------------------------------------- deadlines/cancel over the socket

/// Connect a raw fd to the server socket, bypassing Client, so a test can
/// pipeline several frames without waiting for replies.
int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(SocketFixture, MonsterRowDeadlineDoesNotStarveSmallRequests) {
  // The acceptance scenario (ISSUE 8): a monster-row request with a 10 ms
  // deadline must come back as a typed DeadlineExceeded in bounded time,
  // while concurrent small requests on another connection complete with
  // oracle-checked answers — the deadline frees the executor instead of
  // letting one tenant monopolize it.
  Client heavy = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = heavy.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();

  std::atomic<bool> heavy_done{false};
  Error heavy_err(ErrorCategory::Internal, "run_many unexpectedly succeeded");
  double heavy_seconds = 0.0;
  std::thread monster([&] {
    CallOptions opts;
    opts.request_id = 101;
    opts.deadline_ms = 10;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = heavy.run_many(bigsub.value().fp, heavy_rhs(big, 96), 96, opts);
    heavy_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!r.ok()) heavy_err = std::move(r).error();
    heavy_done.store(true);
  });

  // Meanwhile: a small tenant keeps getting correct answers.
  Client small = connect();
  const CsrMatrix a = small_matrix(33);
  auto sub = small.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  const auto x = gen::test_vector(a.ncols());
  for (int r = 0; r < 6; ++r) {
    auto y = small.run(sub.value().fp, x);
    ASSERT_TRUE(y.ok()) << y.error().to_string();
    expect_ulp_match(a, x, y.value());
  }

  monster.join();
  ASSERT_TRUE(heavy_done.load());
  EXPECT_EQ(heavy_err.category(), ErrorCategory::DeadlineExceeded)
      << heavy_err.to_string();
  // Deadline + chunk-quantum slack, never the full multi-vector sweep.
  EXPECT_LT(heavy_seconds, 5.0);
  EXPECT_GE(core_->stats().deadline_exceeded, 1u);
}

TEST_F(SocketFixture, DeadlinePassedInQueueNeverExecutes) {
  // Two frames pipelined on one connection: a heavy no-deadline job followed
  // by a 1 ms-deadline job.  The second expires while queued behind the
  // first and must answer DeadlineExceeded without ever running.
  Client c = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = c.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();
  const CsrMatrix a = small_matrix(44);
  auto sub = c.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();

  const int fd = raw_connect(socket_path_);
  ASSERT_GE(fd, 0);
  RunManyRequest rm;
  rm.fp = bigsub.value().fp;
  rm.nrhs = 96;
  rm.X = heavy_rhs(big, rm.nrhs);
  RunRequest run;
  run.fp = sub.value().fp;
  run.x = gen::test_vector(a.ncols());
  ASSERT_TRUE(
      write_frame(fd, encode_request(Request(std::move(rm)),
                                     RequestHeader{1, 0}))
          .ok());
  ASSERT_TRUE(
      write_frame(fd, encode_request(Request(std::move(run)),
                                     RequestHeader{2, 1}))
          .ok());

  auto frame1 = read_frame(fd);
  ASSERT_TRUE(frame1.ok() && frame1.value().has_value());
  auto rep1 = decode_reply(*frame1.value());
  ASSERT_TRUE(rep1.ok());
  EXPECT_EQ(rep1.value().request_id, 1u);
  EXPECT_TRUE(std::holds_alternative<RunManyReply>(rep1.value().reply));

  auto frame2 = read_frame(fd);
  ASSERT_TRUE(frame2.ok() && frame2.value().has_value());
  auto rep2 = decode_reply(*frame2.value());
  ASSERT_TRUE(rep2.ok());
  EXPECT_EQ(rep2.value().request_id, 2u);
  expect_error(rep2.value().reply, ErrorCategory::DeadlineExceeded);
  EXPECT_GE(core_->stats().expired_in_queue, 1u);
  ::close(fd);
}

TEST_F(SocketFixture, CancelVerbTargetsTheNamedRequest) {
  Client a = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = a.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();

  Client b = connect();
  // Unknown and unnamed ids answer Unknown, never an error.
  auto miss = b.cancel(999);
  ASSERT_TRUE(miss.ok()) << miss.error().to_string();
  EXPECT_EQ(miss.value(), CancelReply::Outcome::Unknown);
  auto zero = b.cancel(0);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value(), CancelReply::Outcome::Unknown);

  std::atomic<bool> done{false};
  bool run_ok = false;
  Error run_err(ErrorCategory::Internal, "unset");
  std::thread monster([&] {
    CallOptions opts;
    opts.request_id = 55;
    auto r = a.run_many(bigsub.value().fp, heavy_rhs(big, 96), 96, opts);
    run_ok = r.ok();
    if (!r.ok()) run_err = std::move(r).error();
    done.store(true);
  });

  // Race the target: cancel(55) until it lands (Queued or Running) or the
  // job wins the race and finishes.
  bool landed = false;
  while (!done.load()) {
    auto out = b.cancel(55);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    if (out.value() != CancelReply::Outcome::Unknown) {
      landed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monster.join();

  if (run_ok) {
    // The job completed before the cancel could land: legal, but the verb
    // must then have answered Unknown throughout.
    EXPECT_FALSE(landed);
  } else {
    EXPECT_EQ(run_err.category(), ErrorCategory::Cancelled)
        << run_err.to_string();
    EXPECT_GE(core_->stats().cancelled, 1u);
  }
  // Cancellation is idempotent: re-cancelling a finished id is Unknown.
  auto after = b.cancel(55);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), CancelReply::Outcome::Unknown);
}

class WatchdogSocketFixture : public SocketFixture {
 protected:
  void configure(ServerConfig& cfg) override {
    cfg.watchdog_poll_ms = 5;  // sweep fast enough to catch a ~30 ms job
  }
};

TEST_F(WatchdogSocketFixture, WatchdogFireCancelsAndRecyclesTheTeam) {
  if (!robust::fault_injection_enabled())
    GTEST_SKIP() << "built without SPMVOPT_FAULT_INJECTION";
  Client c = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = c.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();

  // Arm AFTER the submit so the fire lands on the run_many below, then let
  // the watchdog declare it overdue on its next sweep.
  robust::fault_arm("server.watchdog_fire");
  CallOptions opts;
  opts.request_id = 9;
  auto r = c.run_many(bigsub.value().fp, heavy_rhs(big, 96), 96, opts);
  robust::fault_disarm_all();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().category(), ErrorCategory::Cancelled)
      << r.error().to_string();

  // The team recycle happens after the reply is flushed; give it a moment.
  ServerStats st;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    st = core_->stats();
    if (st.watchdog_fires >= 1 && st.engine_recycles >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < give_up);
  EXPECT_GE(st.watchdog_fires, 1u);
  EXPECT_GE(st.engine_recycles, 1u);
  EXPECT_FALSE(core_->health().entries().empty());

  // Self-healing means the recycled team still computes correct answers.
  const CsrMatrix a = small_matrix(66);
  auto sub = c.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  const auto x = gen::test_vector(a.ncols());
  auto y = c.run(sub.value().fp, x);
  ASSERT_TRUE(y.ok()) << y.error().to_string();
  expect_ulp_match(a, x, y.value());
}

// ----------------------------------------------------------- drain paths

TEST_F(SocketFixture, DrainWithIdleServerStopsAndRefusesNewConnections) {
  Client c = connect();
  ASSERT_TRUE(c.ping().ok());
  sock_->drain(0.5);
  EXPECT_FALSE(Client::connect(socket_path_).ok());
}

TEST_F(SocketFixture, DrainCancelsWorkThatOutlivesTheGrace) {
  Client c = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = c.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();

  std::atomic<bool> done{false};
  bool run_ok = false;
  Error run_err(ErrorCategory::Internal, "unset");
  std::thread monster([&] {
    // Unnamed on purpose: the drain-time rejection is retryable, and a
    // retrying client would spin against a dying server.
    auto r = c.run_many(bigsub.value().fp, heavy_rhs(big, 96), 96);
    run_ok = r.ok();
    if (!r.ok()) run_err = std::move(r).error();
    done.store(true);
  });
  // Let the frame reach the server, then drain with zero grace: whatever is
  // in flight gets its token cancelled and flushed as a typed reply.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sock_->drain(0.0);
  monster.join();

  if (!run_ok) {
    // Cancelled mid-run, rejected at admission while draining, or the
    // connection died with the server — all legal ends; a hang is not.
    EXPECT_TRUE(run_err.category() == ErrorCategory::Cancelled ||
                run_err.category() == ErrorCategory::Resource ||
                run_err.category() == ErrorCategory::Io)
        << run_err.to_string();
  }
  EXPECT_FALSE(Client::connect(socket_path_).ok());
}

// ------------------------------------------------- client retry over socket

TEST_F(RejectingSocketFixture, NamedRequestsRetryUntilTheBudgetExhausts) {
  Client c = connect();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 2.0;
  c.set_retry_policy(policy);

  CallOptions opts;
  opts.request_id = 5;
  auto sub = c.submit(small_matrix(), opts);
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().category(), ErrorCategory::Resource);
  EXPECT_NE(sub.error().to_string().find("after 3 attempts"),
            std::string::npos)
      << sub.error().to_string();
  EXPECT_GE(core_->stats().rejected_overload, 3u);

  // Unnamed requests make exactly one attempt: no idempotency token, no
  // retry-safety claim.
  const std::uint64_t before = core_->stats().rejected_overload;
  EXPECT_FALSE(c.submit(small_matrix()).ok());
  EXPECT_EQ(core_->stats().rejected_overload, before + 1);
}

TEST_F(RejectingSocketFixture, RetryExhaustFaultShortCircuitsTheSchedule) {
  if (!robust::fault_injection_enabled())
    GTEST_SKIP() << "built without SPMVOPT_FAULT_INJECTION";
  Client c = connect();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 2.0;
  c.set_retry_policy(policy);

  robust::fault_arm("client.retry_exhaust");
  CallOptions opts;
  opts.request_id = 6;
  auto sub = c.submit(small_matrix(), opts);
  robust::fault_disarm_all();
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().category(), ErrorCategory::Resource);
  // The fault cut the loop after the first attempt: one server-side
  // rejection, not four.
  EXPECT_EQ(core_->stats().rejected_overload, 1u);
}

// ------------------------------------------- multi-executor mode (M > 1)

/// executors=4 on a shared work-stealing pool (DESIGN.md §12): requests
/// from different connections execute CONCURRENTLY instead of serializing
/// behind one executor's mailbox engine.
class MultiExecSocketFixture : public SocketFixture {
 protected:
  void configure(ServerConfig& cfg) override {
    cfg.executors = 4;
    cfg.engine_threads = 2;
    cfg.watchdog_poll_ms = 5;
  }
};

TEST_F(MultiExecSocketFixture, SmallTenantCompletesWhileMonsterStillRuns) {
  // Stronger than the single-executor no-starvation test: there the small
  // tenant waits for the monster's DEADLINE to free the executor; here it
  // must complete while the monster is STILL RUNNING — a second executor
  // picks it up, and peak_concurrent proves the overlap.
  Client heavy = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = heavy.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();
  // Both tenants submit before the monster starts, so from here on only the
  // monster's execution can move the engine's dispatch counter.
  Client small = connect();
  const CsrMatrix a = small_matrix(33);
  auto sub = small.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  const auto x = gen::test_vector(a.ncols());
  const std::uint64_t idle_dispatches = core_->stats().engine_dispatches;

  std::atomic<bool> heavy_done{false};
  std::thread monster([&] {
    CallOptions opts;
    opts.request_id = 77;  // named so the test can cancel it when done
    (void)heavy.run_many(bigsub.value().fp, heavy_rhs(big, 96), 96, opts);
    heavy_done.store(true);
  });

  // Wall-clock overlap alone proves nothing: the monster's 38 MB payload
  // spends a while on the wire (long under a loaded host) before its
  // handle() starts.  So wait for its first dispatch, then keep the small
  // tenant running until its requests demonstrably overlap the monster's
  // EXECUTION (peak_concurrent >= 2) or the monster is over.
  while (core_->stats().engine_dispatches == idle_dispatches &&
         !heavy_done.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool overlapped = false;
  while (!heavy_done.load() && !overlapped) {
    auto y = small.run(sub.value().fp, x);
    ASSERT_TRUE(y.ok()) << y.error().to_string();
    expect_ulp_match(a, x, y.value());
    overlapped = core_->stats().peak_concurrent >= 2;
  }
  // Don't sit through the rest of the 96-vector sweep: cancel it.
  while (!heavy_done.load()) {
    auto out = small.cancel(77);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monster.join();

  EXPECT_TRUE(overlapped)
      << "small requests serialized behind the monster despite M=4";
  const ServerStats st = core_->stats();
  EXPECT_EQ(st.executors, 4);
  EXPECT_GE(st.peak_concurrent, 2u);
}

TEST_F(MultiExecSocketFixture, StatsJsonCarriesExecutorAndPoolCounters) {
  Client c = connect();
  const CsrMatrix a = small_matrix(5);
  auto sub = c.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  const auto x = gen::test_vector(a.ncols());
  ASSERT_TRUE(c.run(sub.value().fp, x).ok());

  auto stats = c.stats_json();
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  const std::string& json = stats.value();
  // Schema stays v2: the pool object is additive, and it is ALWAYS present
  // (zeroed in mailbox mode) so dashboards never branch on its existence.
  EXPECT_NE(json.find("\"schema\": \"spmvopt-server-stats/v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"executors\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"peak_concurrent\""), std::string::npos);
  EXPECT_NE(json.find("\"pool\""), std::string::npos);
  for (const char* key : {"\"workers\"", "\"tasks\"", "\"steals\"",
                          "\"parks\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  const ServerStats st = core_->stats();
  EXPECT_GT(st.pool_workers, 0);
  EXPECT_GT(st.pool_tasks, 0u);  // the run above dispatched through the pool
}

TEST_F(MultiExecSocketFixture, CancelVerbLandsAcrossExecutors) {
  Client a = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = a.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();

  Client b = connect();
  std::atomic<bool> done{false};
  bool run_ok = false;
  Error run_err(ErrorCategory::Internal, "unset");
  std::thread monster([&] {
    CallOptions opts;
    opts.request_id = 55;
    auto r = a.run_many(bigsub.value().fp, heavy_rhs(big, 96), 96, opts);
    run_ok = r.ok();
    if (!r.ok()) run_err = std::move(r).error();
    done.store(true);
  });

  // With M=4 the canceller's own requests run on a DIFFERENT executor than
  // the target: the registry sweep must find the id in a peer's slot.
  bool landed = false;
  while (!done.load()) {
    auto out = b.cancel(55);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    if (out.value() != CancelReply::Outcome::Unknown) {
      landed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monster.join();
  if (run_ok) {
    EXPECT_FALSE(landed);
  } else {
    EXPECT_EQ(run_err.category(), ErrorCategory::Cancelled)
        << run_err.to_string();
  }
}

TEST_F(MultiExecSocketFixture, WatchdogQuiescesPeersBeforeRecycling) {
  if (!robust::fault_injection_enabled())
    GTEST_SKIP() << "built without SPMVOPT_FAULT_INJECTION";
  Client c = connect();
  const CsrMatrix big = heavy_matrix();
  auto bigsub = c.submit(big);
  ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();

  // A peer tenant stays live around the fire-and-recycle episode: the
  // recycle gate must drain it, recycle, and let it resume — never recycle
  // the pool under its feet, never deadlock against it.  It parks while the
  // fault is armed: the one-shot fault fires on the first active job the
  // watchdog sweeps, so a peer request in flight at that poll would absorb
  // the fire instead of the monster (the next test covers that path).
  // Between attempts and after the last, its requests race the monster's
  // cancellation and the recycle claim.
  const std::uint64_t fires_before = core_->stats().watchdog_fires;
  std::atomic<bool> stop_peer{false};
  std::atomic<bool> hold_peer{false};
  std::atomic<bool> peer_parked{false};
  std::atomic<int> peer_runs{0};
  std::atomic<int> peer_failures{0};
  std::thread peer([&] {
    auto pc = Client::connect(socket_path_);
    if (!pc.ok()) {
      ++peer_failures;
      peer_parked.store(true);
      return;
    }
    const CsrMatrix a = small_matrix(88);
    auto sub = pc.value().submit(a);
    if (!sub.ok()) {
      ++peer_failures;
      peer_parked.store(true);
      return;
    }
    const auto x = gen::test_vector(a.ncols());
    while (!stop_peer.load()) {
      if (hold_peer.load()) {
        peer_parked.store(true);  // no peer request is in flight from here
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      auto y = pc.value().run(sub.value().fp, x);
      if (!y.ok() || !verify::check_spmv(a, x, y.value()).pass())
        ++peer_failures;
      else
        ++peer_runs;
    }
  });
  const auto wait_for = [](const auto& done) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  // Parks the peer: cleared first so a stale flag from the last park cannot
  // pass for this one.
  const auto park_peer = [&] {
    peer_parked.store(false);
    hold_peer.store(true);
    wait_for([&] { return peer_parked.load(); });
    return peer_parked.load();
  };
  wait_for([&] { return peer_runs.load() > 0 || peer_failures.load() > 0; });
  EXPECT_GT(peer_runs.load(), 0) << "the peer never ran before the fire";

  // With the peer parked the monster is the only job the fire can land on;
  // rerun only if its sweep ends before a watchdog poll cancels it.
  const std::vector<value_t> rhs = heavy_rhs(big, 96);
  bool monster_tripped = false;
  for (int attempt = 0; attempt < 10 && !monster_tripped; ++attempt) {
    if (!park_peer()) {
      stop_peer.store(true);
      peer.join();
      FAIL() << "the peer did not park before the fire";
    }
    robust::fault_arm("server.watchdog_fire");
    CallOptions opts;
    opts.request_id = 9;
    auto r = c.run_many(bigsub.value().fp, rhs, 96, opts);
    if (!r.ok()) {
      EXPECT_EQ(r.error().category(), ErrorCategory::Cancelled)
          << r.error().to_string();
      monster_tripped = true;
    }
    robust::fault_disarm_all();
    hold_peer.store(false);
  }

  ServerStats st;
  wait_for([&] {
    st = core_->stats();
    return st.watchdog_fires >= fires_before + 1 && st.engine_recycles >= 1;
  });
  // The peer resumes on the fresh pool.
  const int runs_after_recycle = peer_runs.load();
  wait_for([&] {
    return peer_runs.load() > runs_after_recycle || peer_failures.load() > 0;
  });
  stop_peer.store(true);
  peer.join();

  EXPECT_TRUE(monster_tripped);
  EXPECT_GE(st.watchdog_fires, fires_before + 1);
  EXPECT_GE(st.engine_recycles, 1u);
  EXPECT_GT(peer_runs.load(), runs_after_recycle)
      << "the peer did not resume after the recycle";
  EXPECT_EQ(peer_failures.load(), 0);

  // Post-recycle correctness on a fresh pool.
  const CsrMatrix a = small_matrix(66);
  auto sub = c.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  const auto x = gen::test_vector(a.ncols());
  auto y = c.run(sub.value().fp, x);
  ASSERT_TRUE(y.ok()) << y.error().to_string();
  expect_ulp_match(a, x, y.value());
}

TEST_F(MultiExecSocketFixture, WatchdogFireOnAPeerRequestDrainsAndRecycles) {
  if (!robust::fault_injection_enabled())
    GTEST_SKIP() << "built without SPMVOPT_FAULT_INJECTION";
  // No monster: two peers run small requests, so the armed fire lands on a
  // peer request in flight.  That request is cancelled (or finishes before
  // its next poll); the recycle gate drains the other peer, recycles, and
  // both resume on the fresh pool.
  const ServerStats st0 = core_->stats();
  std::atomic<bool> stop{false};
  std::atomic<int> cancelled{0};
  std::atomic<int> failures{0};
  std::array<std::atomic<int>, 2> runs{};
  const auto peer_body = [&](int p) {
    auto pc = Client::connect(socket_path_);
    if (!pc.ok()) {
      ++failures;
      return;
    }
    const CsrMatrix a = small_matrix(88 + p);
    auto sub = pc.value().submit(a);
    if (!sub.ok()) {
      ++failures;
      return;
    }
    const auto x = gen::test_vector(a.ncols());
    while (!stop.load()) {
      auto y = pc.value().run(sub.value().fp, x);
      if (!y.ok() && y.error().category() == ErrorCategory::Cancelled)
        ++cancelled;
      else if (!y.ok() || !verify::check_spmv(a, x, y.value()).pass())
        ++failures;
      else
        ++runs[static_cast<std::size_t>(p)];
    }
  };
  std::thread p0(peer_body, 0), p1(peer_body, 1);
  const auto wait_for = [](const auto& done) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  const auto both_ran_since = [&](int r0, int r1) {
    return (runs[0].load() > r0 && runs[1].load() > r1) || failures.load() > 0;
  };
  wait_for([&] { return both_ran_since(0, 0); });

  robust::fault_arm("server.watchdog_fire");
  ServerStats st;
  wait_for([&] {
    st = core_->stats();
    return st.watchdog_fires > st0.watchdog_fires &&
           st.engine_recycles > st0.engine_recycles;
  });
  robust::fault_disarm_all();
  const int r0 = runs[0].load(), r1 = runs[1].load();
  wait_for([&] { return both_ran_since(r0, r1); });
  stop.store(true);
  p0.join();
  p1.join();

  EXPECT_EQ(st.watchdog_fires, st0.watchdog_fires + 1);  // one-shot
  EXPECT_GT(st.engine_recycles, st0.engine_recycles);
  EXPECT_LE(cancelled.load(), 1);  // only the request the fire landed on
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(runs[0].load(), r0) << "peer 0 did not resume after the recycle";
  EXPECT_GT(runs[1].load(), r1) << "peer 1 did not resume after the recycle";
}

TEST_F(MultiExecSocketFixture, DrainCancelsEveryInFlightExecutor) {
  const CsrMatrix big = heavy_matrix();
  Fingerprint fp;
  {
    Client c = connect();
    auto bigsub = c.submit(big);
    ASSERT_TRUE(bigsub.ok()) << bigsub.error().to_string();
    fp = bigsub.value().fp;
  }
  constexpr int kHeavy = 3;
  std::atomic<int> resolved{0};
  std::vector<std::thread> monsters;
  for (int i = 0; i < kHeavy; ++i) {
    monsters.emplace_back([&] {
      auto c = Client::connect(socket_path_);
      if (!c.ok()) {
        ++resolved;  // server already draining: also a legal resolution
        return;
      }
      // Unnamed on purpose (retryable rejection; see the M=1 drain test).
      auto r = c.value().run_many(fp, heavy_rhs(big, 96), 96);
      if (!r.ok()) {
        const ErrorCategory cat = r.error().category();
        EXPECT_TRUE(cat == ErrorCategory::Cancelled ||
                    cat == ErrorCategory::Resource ||
                    cat == ErrorCategory::Io)
            << r.error().to_string();
      }
      ++resolved;
    });
  }
  // Let the frames land on distinct executors, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sock_->drain(0.0);
  for (auto& t : monsters) t.join();
  EXPECT_EQ(resolved.load(), kHeavy);  // a hang, not an error, is the bug
  EXPECT_FALSE(Client::connect(socket_path_).ok());
}

TEST_F(MultiExecSocketFixture, DrainRacingWaitThenStopShutsDownOnce) {
  // The daemon's exact shutdown arrangement: a signal thread calls
  // drain() (which ends in stop()) while the main thread sits in wait()
  // and calls stop() itself the moment stopping_ wakes it.  Both threads
  // reach stop()'s join phase; before it was serialized this deadlocked
  // deterministically at executors > 1 (two join()s of one std::thread).
  Client c = connect();
  const CsrMatrix a = small_matrix(33);
  auto sub = c.submit(a);
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  auto y = c.run(sub.value().fp, gen::test_vector(a.ncols()));
  ASSERT_TRUE(y.ok()) << y.error().to_string();

  std::thread signal_thread([this] { sock_->drain(0.05); });
  sock_->wait();
  sock_->stop();
  signal_thread.join();  // a deadlock here trips the ctest timeout
  EXPECT_FALSE(Client::connect(socket_path_).ok());
}

}  // namespace
}  // namespace spmvopt::server
