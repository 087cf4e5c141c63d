#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <map>
#include <utility>

#include "analysis/analyzer.hpp"
#include "intern/fnv.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"
#include "uml/serialize.hpp"

namespace tut::serve {

namespace {

/// Splits an exception message into (rule tag, bare message). Every layer
/// below the engine embeds its tag as "[family.rule.name]"; anything
/// without one classifies as serve.request.failed.
std::pair<std::string, std::string> classify_error(std::string_view what) {
  const std::size_t open = what.find('[');
  const std::size_t close =
      open == std::string_view::npos ? open : what.find(']', open);
  if (open != std::string_view::npos && close != std::string_view::npos &&
      close > open + 1) {
    std::string tag(what.substr(open + 1, close - open - 1));
    if (tag.find('.') != std::string::npos &&
        tag.find(' ') == std::string::npos) {
      std::string message(what.substr(close + 1));
      if (!message.empty() && message.front() == ' ') message.erase(0, 1);
      return {std::move(tag), std::move(message)};
    }
  }
  return {"serve.request.failed", std::string(what)};
}

/// Injects the request's declared workload into a (reset) simulation:
/// first = period + first_offset, then every `period` ticks to the horizon —
/// tutmac::System::inject_workload's arithmetic exactly, which is what makes
/// a served TUTMAC run byte-identical to a single-shot CLI run. A campaign
/// scenario's free axis named by `param` overrides the period.
void inject_entries(sim::Simulation& simulation,
                    const ModelCache::Entry& entry,
                    const std::vector<WorkloadEntry>& workload,
                    const sim::Scenario* scenario) {
  const sim::Time horizon = simulation.config().horizon;
  for (const WorkloadEntry& w : workload) {
    const uml::Signal* signal = entry.model->find_signal(w.signal);
    if (signal == nullptr) {
      throw ProtocolError("serve.workload.signal",
                          "model has no signal '" + w.signal + "'");
    }
    std::uint64_t period = w.period;
    if (scenario != nullptr && !w.param.empty()) {
      period = static_cast<std::uint64_t>(
          scenario->param(w.param, static_cast<long>(period)));
    }
    if (period == 0) {
      throw ProtocolError("serve.workload.period",
                          "zero period for signal '" + w.signal + "'");
    }
    const sim::Time first = period + w.first_offset;
    const std::size_t count =
        first >= horizon ? 0
                         : static_cast<std::size_t>((horizon - first) / period);
    simulation.inject_periodic(first, period, count, w.port, *signal,
                               std::vector<long>(w.args.begin(),
                                                 w.args.end()));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(const sim::ResourceProfile& profile)
    : profile_(profile), cache_(profile) {
  // Workers must never share one spill file; the per-request config below
  // inherits this profile, so clear the single-run-only path once here.
  profile_.log_spill_path.clear();
}

ModelCache::Acquired Engine::acquire(std::string_view model_xml,
                                     sim::Backend backend) const {
  if (backend == sim::Backend::Native) {
    try {
      return cache_.acquire(model_xml, sim::Backend::Native);
    } catch (const std::exception& e) {
      if (std::string_view(e.what()).find("[native.") ==
          std::string_view::npos) {
        throw;  // a model defect, not a missing compiler
      }
      std::cerr << "tut-serve: " << e.what()
                << "\ntut-serve: falling back to the interpreter backend\n";
    }
  }
  return cache_.acquire(model_xml, sim::Backend::Interpreter);
}

std::string Engine::handle(std::string_view payload, bool* shutdown) {
  try {
    wire::Reader r(payload);
    const std::uint32_t kind = r.u32();
    switch (static_cast<RequestKind>(kind)) {
      case RequestKind::Simulate:
        return do_simulate(r);
      case RequestKind::Batch:
        return do_batch(r);
      case RequestKind::Lint:
        return do_lint(r);
      case RequestKind::Campaign:
        return do_campaign(r);
      case RequestKind::Stats:
        return do_stats();
      case RequestKind::Evict:
        return do_evict(r);
      case RequestKind::Shutdown:
        if (shutdown != nullptr) *shutdown = true;
        return do_shutdown();
    }
    throw ProtocolError("serve.request.unknown",
                        "unknown request kind " + std::to_string(kind));
  } catch (const std::exception& e) {
    const auto [tag, message] = classify_error(e.what());
    return error_response(tag, message);
  }
}

std::string Engine::do_simulate(wire::Reader& r) {
  const SimulateRequest q = SimulateRequest::decode(r);
  const ModelCache::Acquired acq = acquire(q.model_xml, q.backend);

  sim::Config config;
  config.horizon = q.horizon;
  config.envelope = profile_;
  if (!q.faults_xml.empty()) {
    config.faults = sim::FaultPlan::from_xml_text(q.faults_xml);
  }
  if (q.has_seed) config.faults.seed = q.seed;

  // Warm fast path: a pooled context resets in place — no parse, no
  // lowering, no construction. Cold path constructed one over the just-built
  // image; either way the run below is the whole remaining cost.
  std::unique_ptr<sim::Simulation> simulation =
      cache_.acquire_context(acq.entry, config);
  inject_entries(*simulation, *acq.entry, q.workload, nullptr);
  simulation->run();

  SimulateResponse p;
  p.warm = acq.warm;
  p.backend_name = acq.entry->image->name();
  p.image_hash = acq.entry->image->content_hash();
  p.events = simulation->events_dispatched();
  p.records = simulation->log().size();
  p.end_time = simulation->now();
  // The log is rendered only when the client asked for it; the digest is
  // the hash of that same text, so it is never rendered twice.
  if (q.want_log) {
    p.log_text = simulation->log().to_text();
    p.digest = intern::Fnv::of(p.log_text);
  } else {
    p.digest = sim::log_digest(simulation->log());
  }
  cache_.release_context(acq.entry, std::move(simulation));
  return ok_response(p.encode());
}

std::string Engine::do_batch(wire::Reader& r) {
  const BatchRequest q = BatchRequest::decode(r);
  const ModelCache::Acquired acq = acquire(q.model_xml, q.backend);
  const ModelCache::EntryPtr& entry = acq.entry;

  sim::Config base;
  base.horizon = q.horizon;
  base.envelope = profile_;
  if (!q.faults_xml.empty()) {
    base.faults = sim::FaultPlan::from_xml_text(q.faults_xml);
  }

  std::vector<sim::BatchScenario> scenarios;
  scenarios.reserve(q.count);
  for (std::uint32_t i = 0; i < q.count; ++i) {
    sim::BatchScenario s;
    s.name = "seed-" + std::to_string(q.seed + i);
    s.config = base;
    s.config.faults.seed = q.seed + i;
    s.setup = [&entry, &q](sim::Simulation& simulation) {
      inject_entries(simulation, *entry, q.workload, nullptr);
    };
    scenarios.push_back(std::move(s));
  }

  sim::BatchOptions options;
  options.threads = q.threads;
  options.profile = profile_;
  const sim::BatchRunner runner(entry->image, options);
  const std::vector<sim::BatchResult> results = runner.run(scenarios);

  BatchResponse p;
  p.warm = acq.warm;
  p.backend_name = entry->image->name();
  p.image_hash = entry->image->content_hash();
  p.rows.reserve(results.size());
  for (std::uint32_t i = 0; i < results.size(); ++i) {
    BatchResponse::Row row;
    row.seed = q.seed + i;
    row.events = results[i].events;
    row.records = results[i].records;
    row.end_time = results[i].end_time;
    row.hash = results[i].log_hash;
    row.error = results[i].error;
    p.rows.push_back(std::move(row));
  }
  return ok_response(p.encode());
}

std::string Engine::do_lint(wire::Reader& r) {
  const LintRequest q = LintRequest::decode(r);
  LintResponse p;

  // Lint shares the interpreter cache entry with simulate requests, so a
  // model that already simulated lints warm (and vice versa). The cache
  // pipeline requires an *executable* model, though, and lint is exactly
  // the command one points at defective models — those fall through to an
  // uncached parse + analyze, which is total.
  ModelCache::EntryPtr entry;
  try {
    entry = acquire(q.model_xml, sim::Backend::Interpreter).entry;
  } catch (const std::exception&) {
    entry = nullptr;
  }

  if (entry != nullptr) {
    const std::lock_guard<std::mutex> lock(entry->lint_mu);
    if (!entry->lint_done) {
      analysis::Options options;
      options.xml_text = entry->xml;
      const analysis::Report report = analysis::analyze(*entry->model, options);
      entry->lint_errors = report.error_count() != 0;
      entry->lint_warnings = report.warning_count() != 0;
      entry->lint_text = report.to_text();
      entry->lint_json = report.to_json() + "\n";
      entry->lint_done = true;
    } else {
      p.warm = true;
    }
    p.ok = !entry->lint_errors && (!q.werror || !entry->lint_warnings);
    p.text = q.json ? entry->lint_json : entry->lint_text;
    return ok_response(p.encode());
  }

  const std::unique_ptr<uml::Model> model = uml::from_xml_text(
      q.model_xml, static_cast<std::size_t>(profile_.arena_bytes));
  analysis::Options options;
  options.xml_text = q.model_xml;
  const analysis::Report report = analysis::analyze(*model, options);
  p.ok = report.ok(q.werror);
  p.text = q.json ? report.to_json() + "\n" : report.to_text();
  return ok_response(p.encode());
}

std::string Engine::do_campaign(wire::Reader& r) {
  const CampaignRequest q = CampaignRequest::decode(r);

  // The campaign's fault-plan references resolve against the request's
  // inline file set — the daemon never reads client disks.
  std::map<std::string, const std::string*> files;
  for (const auto& [path, content] : q.files) files[path] = &content;
  const sim::CampaignSpec spec = sim::CampaignSpec::from_xml_text(
      q.campaign_xml,
      [&files](const std::string& file) {
        const auto it = files.find(file);
        if (it == files.end()) {
          throw ProtocolError("serve.campaign.file",
                              "campaign references '" + file +
                                  "' but the request carries no such file");
        }
        return *it->second;
      },
      static_cast<std::size_t>(profile_.arena_bytes));

  std::vector<std::string> mapping_names = spec.mapping_names;
  if (mapping_names.empty()) mapping_names.push_back("paper");

  std::map<std::string, const std::string*> image_xml;
  for (const auto& [name, xml] : q.images) image_xml[name] = &xml;

  const auto acquire_all = [&](sim::Backend choice) {
    std::vector<ModelCache::Acquired> out;
    out.reserve(mapping_names.size());
    for (const std::string& name : mapping_names) {
      const auto it = image_xml.find(name);
      if (it == image_xml.end()) {
        throw ProtocolError("serve.campaign.image",
                            "campaign sweeps mapping '" + name +
                                "' but the request carries no such image");
      }
      out.push_back(acquire(*it->second, choice));
    }
    return out;
  };

  // All images fall back together (a half-native campaign would make the
  // provenance ambiguous): when the native acquire of any image fell back,
  // re-acquire the lot as interpreter — warm hits, not rebuilds.
  std::vector<ModelCache::Acquired> acquired = acquire_all(q.backend);
  const std::string_view backend_name = acquired.front().entry->image->name();
  for (const ModelCache::Acquired& a : acquired) {
    if (a.entry->image->name() != backend_name) {
      acquired = acquire_all(sim::Backend::Interpreter);
      break;
    }
  }

  std::vector<ModelCache::EntryPtr> entries;
  std::vector<std::shared_ptr<const sim::BackendImage>> images;
  for (const ModelCache::Acquired& a : acquired) {
    entries.push_back(a.entry);
    images.push_back(a.entry->image);
  }

  const std::vector<WorkloadEntry>& workload = q.workload;
  const auto setup = [entries, &workload](sim::Simulation& simulation,
                                          const sim::Scenario& scenario) {
    inject_entries(simulation, *entries[scenario.image], workload, &scenario);
  };
  const sim::CampaignRunner runner(std::move(images), setup);

  sim::CampaignOptions options;
  options.threads = q.threads;
  options.profile = profile_;
  const sim::CampaignResult result = runner.run(spec, options);

  CampaignResponse p;
  for (const ModelCache::Acquired& a : acquired) {
    if (a.warm) ++p.warm_images;
  }
  p.backend_name = acquired.front().entry->image->name();
  p.digest = result.aggregate.digest;
  p.scenarios = result.aggregate.scenarios;
  p.completed = result.completed;
  for (const std::string& note : result.notes) {
    p.text += "note: " + note + "\n";
  }
  p.text += result.aggregate.to_text();
  return ok_response(p.encode());
}

std::string Engine::do_stats() {
  const CacheStats s = cache_.stats();
  StatsResponse p;
  p.entries = s.entries;
  p.bytes = s.bytes;
  p.capacity = s.capacity;
  p.hits = s.hits;
  p.misses = s.misses;
  p.builds = s.builds;
  p.evictions = s.evictions;
  p.inflight_waits = s.inflight_waits;
  p.contexts = s.contexts;
  return ok_response(p.encode());
}

std::string Engine::do_evict(wire::Reader& r) {
  const EvictRequest q = EvictRequest::decode(r);
  EvictResponse p;
  if (q.all) {
    const auto [count, freed] = cache_.evict_all();
    p.evicted = count;
    p.bytes_freed = freed;
  } else {
    const std::uint64_t before = cache_.stats().bytes;
    if (cache_.evict(q.key)) {
      p.evicted = 1;
      p.bytes_freed = before - cache_.stats().bytes;
    }
  }
  return ok_response(p.encode());
}

std::string Engine::do_shutdown() {
  ShutdownResponse p;
  p.entries_dropped = cache_.evict_all().first;
  return ok_response(p.encode());
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

namespace {

bool send_all(int fd, std::string_view buf) {
  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads exactly `n` bytes. Returns n on success, 0 on a clean EOF before
/// the first byte, -1 on a mid-read cut or error.
ssize_t recv_exact(int fd, char* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, dst + got, n - got, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

Server::Server(Engine& engine, std::uint16_t port, std::size_t threads)
    : engine_(engine) {
  threads_ = sim::resolve_workers(threads, engine_.profile());

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: cannot create socket: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on 127.0.0.1:" +
                             std::to_string(port) + ": " + reason);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::stop() {
  stopping_.store(true);
  // Breaks the blocking accept; the run loop then drains and joins.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::run() {
  std::vector<std::thread> workers;
  workers.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers.emplace_back([this] { worker(); });
  }
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // stop() shut the listener down (or it genuinely died)
    }
    {
      const std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers) t.join();
}

void Server::worker() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
      if (queue_.empty()) return;  // closed_ and drained
      fd = queue_.front();
      queue_.pop_front();
    }
    serve_connection(fd);
  }
}

void Server::serve_connection(int fd) {
  for (;;) {
    char header[8];
    const ssize_t got = recv_exact(fd, header, sizeof header);
    if (got == 0) break;  // clean close between frames
    if (got < 0) {
      // A connection cut mid-frame is an expected event, not an exception.
      std::cerr << "tut-serve: [serve.frame.truncated] connection closed "
                   "mid-frame\n";
      break;
    }
    if (std::memcmp(header, wire::kMagic, sizeof wire::kMagic) != 0) {
      send_all(fd, wire::frame(error_response(
                       "serve.frame.magic", "frame does not start with TUTS")));
      break;
    }
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<std::uint32_t>(
                    static_cast<unsigned char>(header[4 + i]))
                << (8 * i);
    }
    if (length > wire::kMaxFrameBytes) {
      send_all(fd, wire::frame(error_response(
                       "serve.frame.oversize",
                       "frame of " + std::to_string(length) +
                           " bytes exceeds the " +
                           std::to_string(wire::kMaxFrameBytes) +
                           "-byte ceiling")));
      break;
    }
    std::string payload(length, '\0');
    if (length != 0 && recv_exact(fd, payload.data(), length) <= 0) {
      std::cerr << "tut-serve: [serve.frame.truncated] connection closed "
                   "mid-frame\n";
      break;
    }
    bool shutdown = false;
    const std::string response = engine_.handle(payload, &shutdown);
    if (!send_all(fd, wire::frame(response))) break;
    if (shutdown) {
      stop();
      break;
    }
  }
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("serve: cannot create socket: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string node = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve: not an IPv4 address: '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string reason = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve: cannot connect to " + node + ":" +
                             std::to_string(port) + ": " + reason);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::read_frame() {
  char header[8];
  if (recv_exact(fd_, header, sizeof header) <= 0) {
    throw ProtocolError("serve.frame.truncated",
                        "server closed the connection mid-response");
  }
  if (std::memcmp(header, wire::kMagic, sizeof wire::kMagic) != 0) {
    throw ProtocolError("serve.frame.magic",
                        "response frame does not start with TUTS");
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(header[4 + i]))
              << (8 * i);
  }
  if (length > wire::kMaxFrameBytes) {
    throw ProtocolError("serve.frame.oversize",
                        "response frame of " + std::to_string(length) +
                            " bytes exceeds the ceiling");
  }
  std::string payload(length, '\0');
  if (length != 0 && recv_exact(fd_, payload.data(), length) <= 0) {
    throw ProtocolError("serve.frame.truncated",
                        "server closed the connection mid-response");
  }
  return payload;
}

std::string Client::call(std::string_view request_payload) {
  if (!send_all(fd_, wire::frame(request_payload))) {
    throw std::runtime_error("serve: cannot write to the server: " +
                             std::string(std::strerror(errno)));
  }
  const std::string payload = read_frame();
  return std::string(decode_response(payload));
}

}  // namespace tut::serve
