// Tests for the simulation service: wire-protocol round trips and
// truncation tagging, the content-hash ModelCache (LRU eviction order under
// the byte ceiling, single-flight build-once, pooled-context byte-identity),
// the Engine request path (cold vs warm vs post-eviction digests equal to a
// direct in-process run, both backends, batch/lint/campaign parity), the
// TCP Server/Client loop, and the native .so build gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codegen/native.hpp"
#include "mapping/mapping.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"
#include "uml/serialize.hpp"

using namespace tut;

#define REQUIRE_COMPILER()                                  \
  do {                                                      \
    if (codegen::NativeImage::find_compiler().empty())      \
      GTEST_SKIP() << "no C++ compiler on this host";       \
  } while (0)

namespace {

constexpr sim::Time kHorizon = 2'000'000;  // 2 ms keeps runs ~50 events

/// One TUTMAC system + its serialized XML + declared workload. Distinct
/// c_slot values produce distinct model content (the cycle cost lives in
/// the behaviour), hence distinct cache keys of identical byte size.
struct Fixture {
  tutmac::System sys;
  std::string xml;
  std::vector<serve::WorkloadEntry> workload;

  explicit Fixture(long c_slot) : sys(build_system(c_slot)) {
    xml = uml::to_xml_string(*sys.model);
    workload.resize(3);
    const tutmac::Options& o = sys.options;
    workload[0] = {"pphy", sys.radio_slot->name(), "slotPeriod",
                   o.slot_period, 0, {}};
    workload[1] = {"pphy", sys.rx_frame->name(), "rxPeriod",
                   o.rx_period, 7'777, {256}};
    workload[2] = {"puser", sys.user_msdu->name(), "msduPeriod",
                   o.msdu_period, 3'333, {512}};
  }

  static tutmac::System build_system(long c_slot) {
    tutmac::Options opt;
    opt.horizon = kHorizon;
    opt.c_slot = c_slot;
    return tutmac::build(opt);
  }
};

const Fixture& fixture(long c_slot = 3900) {
  static std::map<long, std::unique_ptr<Fixture>> built;
  auto& slot = built[c_slot];
  if (!slot) slot = std::make_unique<Fixture>(c_slot);
  return *slot;
}

std::string simulate_payload(const Fixture& f, sim::Backend backend,
                             bool want_log = false) {
  serve::SimulateRequest q;
  q.model_xml = f.xml;
  q.backend = backend;
  q.horizon = kHorizon;
  q.want_log = want_log;
  q.workload = f.workload;
  return q.encode();
}

serve::SimulateResponse simulate(serve::Engine& engine,
                                 const std::string& payload) {
  const std::string resp = engine.handle(payload);
  serve::wire::Reader r(serve::decode_response(resp));
  return serve::SimulateResponse::decode(r);
}

serve::StatsResponse engine_stats(serve::Engine& engine) {
  const std::string resp = engine.handle(serve::encode_stats_request());
  serve::wire::Reader r(serve::decode_response(resp));
  return serve::StatsResponse::decode(r);
}

/// The reference: a fresh single-shot run straight through the pipeline,
/// exactly what `tut sim tutmac` does.
std::uint64_t direct_digest(const Fixture& f, std::string* log_text = nullptr) {
  mapping::SystemView view(*f.sys.model);
  auto image = sim::CompiledModel::build(view);
  sim::Config cfg;
  cfg.horizon = kHorizon;
  sim::Simulation s(image, cfg);
  f.sys.inject_workload(s);
  s.run();
  if (log_text) *log_text = s.log().to_text();
  return sim::log_digest(s.log());
}

/// Engine-style injection: signals resolved by name on `model` — required
/// whenever the simulation runs over a cache entry's reparsed model, where
/// the fixture's original Signal objects are strangers.
void inject_workload_by_name(sim::Simulation& s, const uml::Model& model,
                             const std::vector<serve::WorkloadEntry>& w,
                             sim::Time horizon) {
  for (const auto& e : w) {
    const uml::Signal* sig = model.find_signal(e.signal);
    ASSERT_NE(sig, nullptr) << e.signal;
    const sim::Time first = e.period + e.first_offset;
    const std::size_t count =
        first >= horizon ? 0
                         : static_cast<std::size_t>((horizon - first) / e.period);
    std::vector<long> args(e.args.begin(), e.args.end());
    s.inject_periodic(first, e.period, count, e.port, *sig, std::move(args));
  }
}

std::string temp_dir(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "." + std::to_string(::getpid())))
      .string();
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(ServeProtocol, SimulateRequestRoundTrip) {
  serve::SimulateRequest q;
  q.model_xml = "<model/>";
  q.backend = sim::Backend::Native;
  q.horizon = 123'456;
  q.has_seed = true;
  q.seed = 99;
  q.faults_xml = "<faults/>";
  q.want_log = true;
  q.workload = {{"pphy", "Sig", "slotPeriod", 1'000, 17, {256, -3}}};

  const std::string payload = q.encode();
  serve::wire::Reader r(payload);
  EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(serve::RequestKind::Simulate));
  const serve::SimulateRequest d = serve::SimulateRequest::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(d.model_xml, q.model_xml);
  EXPECT_EQ(d.backend, sim::Backend::Native);
  EXPECT_EQ(d.horizon, q.horizon);
  EXPECT_TRUE(d.has_seed);
  EXPECT_EQ(d.seed, 99u);
  EXPECT_EQ(d.faults_xml, q.faults_xml);
  EXPECT_TRUE(d.want_log);
  ASSERT_EQ(d.workload.size(), 1u);
  EXPECT_EQ(d.workload[0].signal, "Sig");
  EXPECT_EQ(d.workload[0].first_offset, 17u);
  EXPECT_EQ(d.workload[0].args, (std::vector<std::int64_t>{256, -3}));
}

TEST(ServeProtocol, TruncatedPayloadTagged) {
  serve::SimulateRequest q;
  q.model_xml = "<model with enough bytes to truncate/>";
  const std::string payload = q.encode();
  serve::wire::Reader r(
      std::string_view(payload).substr(0, payload.size() - 5));
  r.u32();  // kind
  try {
    serve::SimulateRequest::decode(r);
    FAIL() << "expected ProtocolError";
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.tag(), "serve.frame.truncated");
    EXPECT_NE(std::string(e.what()).find("[serve.frame.truncated]"),
              std::string::npos);
  }
}

TEST(ServeProtocol, ErrorEnvelopeRoundTrip) {
  const std::string resp =
      serve::error_response("serve.request.failed", "boom");
  try {
    serve::decode_response(resp);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[serve.request.failed] boom"),
              std::string::npos);
  }
}

TEST(ServeProtocol, AdminTextCarriesTags) {
  serve::StatsResponse s;
  EXPECT_NE(s.to_text().find("[serve.stats]"), std::string::npos);
  serve::EvictResponse ev;
  EXPECT_NE(ev.to_text().find("[serve.evict]"), std::string::npos);
  serve::ShutdownResponse sd;
  EXPECT_NE(sd.to_text().find("[serve.shutdown]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ModelCache
// ---------------------------------------------------------------------------

TEST(ModelCache, KeySeparatesContentBackendAndCaps) {
  const sim::ResourceProfile unb = sim::ResourceProfile::unbounded();
  serve::ModelCache cache(unb);
  const std::uint64_t a =
      cache.key_of(fixture(3900).xml, sim::Backend::Interpreter);
  EXPECT_NE(a, cache.key_of(fixture(3901).xml, sim::Backend::Interpreter));
  EXPECT_NE(a, cache.key_of(fixture(3900).xml, sim::Backend::Native));

  serve::ModelCache capped(sim::ResourceProfile::constrained());
  EXPECT_NE(a, capped.key_of(fixture(3900).xml, sim::Backend::Interpreter));
}

TEST(ModelCache, LruEvictionOrderUnderByteCeiling) {
  // Measure one entry's footprint, then cap the cache at 2.5 entries.
  sim::ResourceProfile profile = sim::ResourceProfile::unbounded();
  std::uint64_t entry_bytes = 0;
  {
    serve::ModelCache probe(profile);
    probe.acquire(fixture(3901).xml, sim::Backend::Interpreter);
    entry_bytes = probe.stats().bytes;
  }
  ASSERT_GT(entry_bytes, 0u);
  profile.cache_bytes = entry_bytes * 5 / 2;

  serve::ModelCache cache(profile);
  const auto& a = fixture(3901);
  const auto& b = fixture(3902);
  const auto& c = fixture(3903);

  EXPECT_FALSE(cache.acquire(a.xml, sim::Backend::Interpreter).warm);
  EXPECT_FALSE(cache.acquire(b.xml, sim::Backend::Interpreter).warm);
  // Touch A so B becomes the LRU entry, then push past the ceiling with C.
  EXPECT_TRUE(cache.acquire(a.xml, sim::Backend::Interpreter).warm);
  EXPECT_FALSE(cache.acquire(c.xml, sim::Backend::Interpreter).warm);

  serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_LE(st.bytes, st.capacity);

  // A survived (touched), B did not.
  EXPECT_TRUE(cache.acquire(a.xml, sim::Backend::Interpreter).warm);
  EXPECT_FALSE(cache.acquire(b.xml, sim::Backend::Interpreter).warm);

  st = cache.stats();
  EXPECT_GE(st.evictions, 2u);
  EXPECT_LE(st.bytes, st.capacity);
}

TEST(ModelCache, SingleFlightBuildsOnce) {
  serve::ModelCache cache(sim::ResourceProfile::unbounded());
  const auto& f = fixture();

  constexpr int kThreads = 6;
  std::vector<serve::ModelCache::Acquired> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&cache, &f, &got, i] {
      got[i] = cache.acquire(f.xml, sim::Backend::Interpreter);
    });
  for (auto& t : threads) t.join();

  int cold = 0;
  for (const auto& acq : got) {
    ASSERT_NE(acq.entry, nullptr);
    EXPECT_EQ(acq.entry, got[0].entry);  // one shared entry for all
    if (!acq.warm) ++cold;
  }
  EXPECT_EQ(cold, 1);

  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.builds, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ModelCache, PooledContextRunsByteIdentical) {
  serve::ModelCache cache(sim::ResourceProfile::unbounded());
  const auto& f = fixture();
  const auto acq = cache.acquire(f.xml, sim::Backend::Interpreter);

  sim::Config cfg;
  cfg.horizon = kHorizon;

  auto run_once = [&] {
    auto s = cache.acquire_context(acq.entry, cfg);
    inject_workload_by_name(*s, *acq.entry->model, f.workload, kHorizon);
    s->run();
    const std::uint64_t digest = sim::log_digest(s->log());
    cache.release_context(acq.entry, std::move(s));
    return digest;
  };

  const std::uint64_t fresh = run_once();
  EXPECT_EQ(cache.stats().contexts, 1u);  // pooled on release
  const std::uint64_t pooled = run_once();  // pops + resets the same context
  EXPECT_EQ(fresh, pooled);
  EXPECT_EQ(fresh, direct_digest(f));
}

// ---------------------------------------------------------------------------
// Engine request path
// ---------------------------------------------------------------------------

TEST(ServeEngine, UnknownRequestKindTagged) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  std::string payload;
  serve::wire::put_u32(payload, 99);
  try {
    serve::decode_response(engine.handle(payload));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[serve.request.unknown]"),
              std::string::npos);
  }
}

TEST(ServeEngine, MalformedPayloadTagged) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  std::string payload;
  serve::wire::put_u32(
      payload, static_cast<std::uint32_t>(serve::RequestKind::Simulate));
  payload += "xx";  // short body
  try {
    serve::decode_response(engine.handle(payload));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[serve.frame.truncated]"),
              std::string::npos);
  }
}

TEST(ServeEngine, UnknownBackendWordTagged) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  const std::string resp = engine.handle(
      simulate_payload(fixture(), static_cast<sim::Backend>(7)));
  serve::wire::Reader r(resp);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.str(), "serve.request.backend");
  try {
    serve::decode_response(resp);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[serve.request.backend]"),
              std::string::npos);
  }
  EXPECT_EQ(engine_stats(engine).builds, 0u);  // rejected before the cache
}

TEST(ServeEngine, ColdWarmAndPostEvictionDigestsIdentical) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  const auto& f = fixture();
  const std::string payload =
      simulate_payload(f, sim::Backend::Interpreter, true);

  std::string reference_log;
  const std::uint64_t reference = direct_digest(f, &reference_log);

  const serve::SimulateResponse cold = simulate(engine, payload);
  EXPECT_FALSE(cold.warm);
  EXPECT_EQ(cold.backend_name, "interpreter");
  EXPECT_EQ(cold.digest, reference);
  EXPECT_EQ(cold.log_text, reference_log);
  EXPECT_GT(cold.events, 0u);

  const serve::SimulateResponse warm = simulate(engine, payload);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.digest, reference);
  EXPECT_EQ(warm.log_text, reference_log);
  EXPECT_EQ(warm.events, cold.events);
  EXPECT_EQ(warm.records, cold.records);
  EXPECT_EQ(warm.end_time, cold.end_time);

  // Evict through the request path, then rebuild: still byte-identical.
  serve::EvictRequest ev;
  ev.all = true;
  const std::string ev_resp = engine.handle(ev.encode());
  serve::wire::Reader evr(serve::decode_response(ev_resp));
  const serve::EvictResponse evicted = serve::EvictResponse::decode(evr);
  EXPECT_EQ(evicted.evicted, 1u);
  EXPECT_GT(evicted.bytes_freed, 0u);

  const serve::SimulateResponse rebuilt = simulate(engine, payload);
  EXPECT_FALSE(rebuilt.warm);
  EXPECT_EQ(rebuilt.digest, reference);
  EXPECT_EQ(rebuilt.log_text, reference_log);

  const serve::StatsResponse st = engine_stats(engine);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.builds, 2u);  // cold + post-eviction rebuild
  EXPECT_EQ(st.misses, 2u);
  EXPECT_GE(st.hits, 1u);
}

TEST(ServeEngine, NativeBackendMatchesInterpreter) {
  REQUIRE_COMPILER();
  serve::Engine engine(sim::ResourceProfile::unbounded());
  const auto& f = fixture();

  const serve::SimulateResponse interp = simulate(
      engine, simulate_payload(f, sim::Backend::Interpreter, true));
  const serve::SimulateResponse native_cold = simulate(
      engine, simulate_payload(f, sim::Backend::Native, true));
  EXPECT_FALSE(native_cold.warm);
  EXPECT_EQ(native_cold.backend_name, "native");
  EXPECT_NE(native_cold.image_hash, 0u);
  EXPECT_EQ(native_cold.digest, interp.digest);
  EXPECT_EQ(native_cold.log_text, interp.log_text);

  const serve::SimulateResponse native_warm = simulate(
      engine, simulate_payload(f, sim::Backend::Native, true));
  EXPECT_TRUE(native_warm.warm);
  EXPECT_EQ(native_warm.image_hash, native_cold.image_hash);
  EXPECT_EQ(native_warm.digest, interp.digest);

  // Interpreter and native occupy distinct cache entries.
  EXPECT_EQ(engine.cache().stats().entries, 2u);
}

TEST(ServeEngine, BatchWarmRowsMatchCold) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  const auto& f = fixture();

  serve::BatchRequest q;
  q.model_xml = f.xml;
  q.horizon = kHorizon;
  q.seed = 7;
  q.count = 3;
  q.threads = 1;
  q.workload = f.workload;
  const std::string payload = q.encode();

  auto run = [&] {
    const std::string resp = engine.handle(payload);
    serve::wire::Reader r(serve::decode_response(resp));
    return serve::BatchResponse::decode(r);
  };
  const serve::BatchResponse cold = run();
  EXPECT_FALSE(cold.warm);
  ASSERT_EQ(cold.rows.size(), 3u);
  EXPECT_EQ(cold.rows[0].seed, 7u);
  for (const auto& row : cold.rows) {
    EXPECT_TRUE(row.error.empty());
    EXPECT_NE(row.hash, 0u);
  }

  const serve::BatchResponse warm = run();
  EXPECT_TRUE(warm.warm);
  ASSERT_EQ(warm.rows.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(warm.rows[i].seed, cold.rows[i].seed);
    EXPECT_EQ(warm.rows[i].hash, cold.rows[i].hash);
    EXPECT_EQ(warm.rows[i].events, cold.rows[i].events);
  }
}

TEST(ServeEngine, LintReportCachedWithModel) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  serve::LintRequest q;
  q.model_xml = fixture().xml;
  const std::string payload = q.encode();

  auto run = [&] {
    const std::string resp = engine.handle(payload);
    serve::wire::Reader r(serve::decode_response(resp));
    return serve::LintResponse::decode(r);
  };
  const serve::LintResponse cold = run();
  EXPECT_FALSE(cold.warm);
  EXPECT_FALSE(cold.text.empty());

  const serve::LintResponse warm = run();
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.ok, cold.ok);
  EXPECT_EQ(warm.text, cold.text);

  // Lint shares the simulate entry: still one interpreter cache entry.
  EXPECT_EQ(engine.cache().stats().entries, 1u);
}

TEST(ServeEngine, CampaignMatchesLocalRunner) {
  const auto& f = fixture();
  const std::string campaign_xml = R"(<?xml version="1.0"?>
<tut:campaign name="serve-parity" seed="5" horizon="2000000">
  <axis name="seed" count="3"/>
  <axis name="slotPeriod" values="50000 100000"/>
</tut:campaign>)";

  // Reference: the local CampaignRunner over the same compiled image.
  const sim::CampaignSpec spec = sim::CampaignSpec::from_xml_text(campaign_xml);
  mapping::SystemView view(*f.sys.model);
  auto image = sim::CompiledModel::build(view);
  auto setup = [&f](sim::Simulation& s, const sim::Scenario& sc) {
    tutmac::Options o = f.sys.options;
    o.horizon = s.config().horizon;
    o.slot_period = static_cast<sim::Time>(
        sc.param("slotPeriod", static_cast<long>(o.slot_period)));
    o.rx_period = static_cast<sim::Time>(
        sc.param("rxPeriod", static_cast<long>(o.rx_period)));
    o.msdu_period = static_cast<sim::Time>(
        sc.param("msduPeriod", static_cast<long>(o.msdu_period)));
    f.sys.inject_workload(s, o);
  };
  sim::CampaignOptions local_opt;
  local_opt.threads = 1;
  const sim::CampaignResult local =
      sim::CampaignRunner({image}, setup).run(spec, local_opt);

  serve::Engine engine(sim::ResourceProfile::unbounded());
  serve::CampaignRequest q;
  q.campaign_xml = campaign_xml;
  q.threads = 1;
  q.images = {{"paper", f.xml}};
  q.workload = f.workload;
  const std::string cold_resp = engine.handle(q.encode());
  serve::wire::Reader r(serve::decode_response(cold_resp));
  const serve::CampaignResponse served = serve::CampaignResponse::decode(r);

  EXPECT_TRUE(served.completed);
  EXPECT_EQ(served.scenarios, spec.total());
  EXPECT_EQ(served.digest, local.aggregate.digest);
  EXPECT_EQ(served.warm_images, 0u);

  // Second run over the now-warm image: same digest, warm hit counted.
  const std::string warm_resp = engine.handle(q.encode());
  serve::wire::Reader r2(serve::decode_response(warm_resp));
  const serve::CampaignResponse warm = serve::CampaignResponse::decode(r2);
  EXPECT_EQ(warm.warm_images, 1u);
  EXPECT_EQ(warm.digest, local.aggregate.digest);
}

// ---------------------------------------------------------------------------
// Server / Client transport
// ---------------------------------------------------------------------------

TEST(ServeServer, ClientRoundTripAndShutdown) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  serve::Server server(engine, 0, 2);
  ASSERT_NE(server.port(), 0);
  std::thread runner([&server] { server.run(); });

  const auto& f = fixture();
  const std::uint64_t reference = direct_digest(f);
  {
    serve::Client client("127.0.0.1", server.port());
    const std::string body =
        client.call(simulate_payload(f, sim::Backend::Interpreter));
    serve::wire::Reader r(body);
    const serve::SimulateResponse p = serve::SimulateResponse::decode(r);
    EXPECT_FALSE(p.warm);
    EXPECT_EQ(p.digest, reference);

    const std::string stats_body = client.call(serve::encode_stats_request());
    serve::wire::Reader sr(stats_body);
    const serve::StatsResponse st = serve::StatsResponse::decode(sr);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.builds, 1u);
  }
  {
    // A second connection sees the warm cache, then shuts the daemon down.
    serve::Client client("127.0.0.1", server.port());
    const std::string warm_body =
        client.call(simulate_payload(f, sim::Backend::Interpreter));
    serve::wire::Reader r(warm_body);
    EXPECT_TRUE(serve::SimulateResponse::decode(r).warm);

    const std::string bye_body = client.call(serve::encode_shutdown_request());
    serve::wire::Reader sd(bye_body);
    EXPECT_EQ(serve::ShutdownResponse::decode(sd).entries_dropped, 1u);
  }
  runner.join();  // shutdown request stopped the accept loop
  EXPECT_EQ(engine.cache().stats().entries, 0u);
}

TEST(ServeServer, ServerSideErrorReachesClientTagged) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  serve::Server server(engine, 0, 1);
  std::thread runner([&server] { server.run(); });
  {
    serve::Client client("127.0.0.1", server.port());
    std::string payload;
    serve::wire::put_u32(payload, 99);
    try {
      client.call(payload);
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("[serve.request.unknown]"),
                std::string::npos);
    }
  }
  server.stop();
  runner.join();
}

// ---------------------------------------------------------------------------
// Native .so build gate (codegen single-flight)
// ---------------------------------------------------------------------------

TEST(NativeBuildGate, ConcurrentBuildsCompileOnce) {
  REQUIRE_COMPILER();
  const auto& f = fixture();
  mapping::SystemView view(*f.sys.model);
  auto model = sim::CompiledModel::build(view);

  // A fresh cache dir: the .so cannot pre-exist, so exactly one of the
  // concurrent builds may compile; the gate serializes the rest onto the
  // cached object.
  codegen::NativeOptions opt;
  opt.cache_dir = temp_dir("tut-serve-gate");
  std::filesystem::remove_all(opt.cache_dir);

  constexpr int kThreads = 3;
  std::vector<std::shared_ptr<const codegen::NativeImage>> images(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&model, &opt, &images, i] {
      images[i] = codegen::NativeImage::build(model, opt);
    });
  for (auto& t : threads) t.join();

  int compiled = 0;
  for (const auto& img : images) {
    ASSERT_NE(img, nullptr);
    EXPECT_EQ(img->content_hash(), images[0]->content_hash());
    if (!img->cache_hit()) ++compiled;
  }
  EXPECT_EQ(compiled, 1);

  std::filesystem::remove_all(opt.cache_dir);
}
