#include "serve/protocol.hpp"

namespace tut::serve {

namespace wire {

std::string frame(std::string_view payload) {
  std::string out;
  out.reserve(8 + payload.size());
  out.append(kMagic, sizeof kMagic);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

void Reader::need(std::size_t n) const {
  if (pos_ + n > bytes_.size()) {
    throw ProtocolError("serve.frame.truncated",
                        "payload ends after " + std::to_string(bytes_.size()) +
                            " bytes, " + std::to_string(n) +
                            " more needed at offset " + std::to_string(pos_));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::string_view Reader::str() {
  const std::uint32_t n = u32();
  need(n);
  const std::string_view s = bytes_.substr(pos_, n);
  pos_ += n;
  return s;
}

}  // namespace wire

using wire::put_i64;
using wire::put_str;
using wire::put_u32;
using wire::put_u64;
using wire::put_u8;

void encode_workload(std::string& out, const std::vector<WorkloadEntry>& w) {
  put_u32(out, static_cast<std::uint32_t>(w.size()));
  for (const WorkloadEntry& e : w) {
    put_str(out, e.port);
    put_str(out, e.signal);
    put_str(out, e.param);
    put_u64(out, e.period);
    put_u64(out, e.first_offset);
    put_u32(out, static_cast<std::uint32_t>(e.args.size()));
    for (const std::int64_t a : e.args) put_i64(out, a);
  }
}

std::vector<WorkloadEntry> decode_workload(wire::Reader& r) {
  std::vector<WorkloadEntry> w(r.u32());
  for (WorkloadEntry& e : w) {
    e.port = std::string(r.str());
    e.signal = std::string(r.str());
    e.param = std::string(r.str());
    e.period = r.u64();
    e.first_offset = r.u64();
    e.args.resize(r.u32());
    for (std::int64_t& a : e.args) a = r.i64();
  }
  return w;
}

namespace {

/// A request's backend word; only sim::Backend's values decode.
sim::Backend decode_backend(wire::Reader& r) {
  const std::uint32_t word = r.u32();
  if (word > static_cast<std::uint32_t>(sim::Backend::Native)) {
    throw ProtocolError("serve.request.backend",
                        "unknown backend word " + std::to_string(word) +
                            " (0 interpreter, 1 native)");
  }
  return static_cast<sim::Backend>(word);
}

}  // namespace

// -- simulate ---------------------------------------------------------------

std::string SimulateRequest::encode() const {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(RequestKind::Simulate));
  put_str(out, model_xml);
  put_u32(out, static_cast<std::uint32_t>(backend));
  put_u64(out, horizon);
  put_u8(out, has_seed ? 1 : 0);
  put_u64(out, seed);
  put_str(out, faults_xml);
  put_u8(out, want_log ? 1 : 0);
  encode_workload(out, workload);
  return out;
}

SimulateRequest SimulateRequest::decode(wire::Reader& r) {
  SimulateRequest q;
  q.model_xml = std::string(r.str());
  q.backend = decode_backend(r);
  q.horizon = r.u64();
  q.has_seed = r.u8() != 0;
  q.seed = r.u64();
  q.faults_xml = std::string(r.str());
  q.want_log = r.u8() != 0;
  q.workload = decode_workload(r);
  return q;
}

std::string SimulateResponse::encode() const {
  std::string out;
  put_u8(out, warm ? 1 : 0);
  put_str(out, backend_name);
  put_u64(out, image_hash);
  put_u64(out, events);
  put_u64(out, records);
  put_u64(out, end_time);
  put_u64(out, digest);
  put_str(out, log_text);
  return out;
}

SimulateResponse SimulateResponse::decode(wire::Reader& r) {
  SimulateResponse p;
  p.warm = r.u8() != 0;
  p.backend_name = std::string(r.str());
  p.image_hash = r.u64();
  p.events = r.u64();
  p.records = r.u64();
  p.end_time = r.u64();
  p.digest = r.u64();
  p.log_text = std::string(r.str());
  return p;
}

// -- batch ------------------------------------------------------------------

std::string BatchRequest::encode() const {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(RequestKind::Batch));
  put_str(out, model_xml);
  put_u32(out, static_cast<std::uint32_t>(backend));
  put_u64(out, horizon);
  put_u64(out, seed);
  put_u32(out, count);
  put_u32(out, threads);
  put_str(out, faults_xml);
  encode_workload(out, workload);
  return out;
}

BatchRequest BatchRequest::decode(wire::Reader& r) {
  BatchRequest q;
  q.model_xml = std::string(r.str());
  q.backend = decode_backend(r);
  q.horizon = r.u64();
  q.seed = r.u64();
  q.count = r.u32();
  q.threads = r.u32();
  q.faults_xml = std::string(r.str());
  q.workload = decode_workload(r);
  return q;
}

std::string BatchResponse::encode() const {
  std::string out;
  put_u8(out, warm ? 1 : 0);
  put_str(out, backend_name);
  put_u64(out, image_hash);
  put_u32(out, static_cast<std::uint32_t>(rows.size()));
  for (const Row& row : rows) {
    put_u64(out, row.seed);
    put_u64(out, row.events);
    put_u64(out, row.records);
    put_u64(out, row.end_time);
    put_u64(out, row.hash);
    put_str(out, row.error);
  }
  return out;
}

BatchResponse BatchResponse::decode(wire::Reader& r) {
  BatchResponse p;
  p.warm = r.u8() != 0;
  p.backend_name = std::string(r.str());
  p.image_hash = r.u64();
  p.rows.resize(r.u32());
  for (Row& row : p.rows) {
    row.seed = r.u64();
    row.events = r.u64();
    row.records = r.u64();
    row.end_time = r.u64();
    row.hash = r.u64();
    row.error = std::string(r.str());
  }
  return p;
}

// -- lint -------------------------------------------------------------------

std::string LintRequest::encode() const {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(RequestKind::Lint));
  put_str(out, model_xml);
  put_u8(out, json ? 1 : 0);
  put_u8(out, werror ? 1 : 0);
  return out;
}

LintRequest LintRequest::decode(wire::Reader& r) {
  LintRequest q;
  q.model_xml = std::string(r.str());
  q.json = r.u8() != 0;
  q.werror = r.u8() != 0;
  return q;
}

std::string LintResponse::encode() const {
  std::string out;
  put_u8(out, warm ? 1 : 0);
  put_u8(out, ok ? 1 : 0);
  put_str(out, text);
  return out;
}

LintResponse LintResponse::decode(wire::Reader& r) {
  LintResponse p;
  p.warm = r.u8() != 0;
  p.ok = r.u8() != 0;
  p.text = std::string(r.str());
  return p;
}

// -- campaign ---------------------------------------------------------------

std::string CampaignRequest::encode() const {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(RequestKind::Campaign));
  put_str(out, campaign_xml);
  put_u32(out, static_cast<std::uint32_t>(backend));
  put_u32(out, threads);
  put_u32(out, static_cast<std::uint32_t>(images.size()));
  for (const auto& [name, xml] : images) {
    put_str(out, name);
    put_str(out, xml);
  }
  put_u32(out, static_cast<std::uint32_t>(files.size()));
  for (const auto& [path, content] : files) {
    put_str(out, path);
    put_str(out, content);
  }
  encode_workload(out, workload);
  return out;
}

CampaignRequest CampaignRequest::decode(wire::Reader& r) {
  CampaignRequest q;
  q.campaign_xml = std::string(r.str());
  q.backend = decode_backend(r);
  q.threads = r.u32();
  q.images.resize(r.u32());
  for (auto& [name, xml] : q.images) {
    name = std::string(r.str());
    xml = std::string(r.str());
  }
  q.files.resize(r.u32());
  for (auto& [path, content] : q.files) {
    path = std::string(r.str());
    content = std::string(r.str());
  }
  q.workload = decode_workload(r);
  return q;
}

std::string CampaignResponse::encode() const {
  std::string out;
  put_u32(out, warm_images);
  put_str(out, backend_name);
  put_u64(out, digest);
  put_u64(out, scenarios);
  put_u8(out, completed ? 1 : 0);
  put_str(out, text);
  return out;
}

CampaignResponse CampaignResponse::decode(wire::Reader& r) {
  CampaignResponse p;
  p.warm_images = r.u32();
  p.backend_name = std::string(r.str());
  p.digest = r.u64();
  p.scenarios = r.u64();
  p.completed = r.u8() != 0;
  p.text = std::string(r.str());
  return p;
}

// -- admin ------------------------------------------------------------------

std::string StatsResponse::encode() const {
  std::string out;
  put_u64(out, entries);
  put_u64(out, bytes);
  put_u64(out, capacity);
  put_u64(out, hits);
  put_u64(out, misses);
  put_u64(out, builds);
  put_u64(out, evictions);
  put_u64(out, inflight_waits);
  put_u64(out, contexts);
  return out;
}

StatsResponse StatsResponse::decode(wire::Reader& r) {
  StatsResponse p;
  p.entries = r.u64();
  p.bytes = r.u64();
  p.capacity = r.u64();
  p.hits = r.u64();
  p.misses = r.u64();
  p.builds = r.u64();
  p.evictions = r.u64();
  p.inflight_waits = r.u64();
  p.contexts = r.u64();
  return p;
}

std::string StatsResponse::to_text() const {
  std::string out = "[serve.stats] cache " + std::to_string(entries) +
                    " entries, " + std::to_string(bytes) + " bytes (cap ";
  out += capacity == 0 ? "unbounded" : std::to_string(capacity);
  out += "), " + std::to_string(hits) + " hits, " + std::to_string(misses) +
         " misses, " + std::to_string(builds) + " builds, " +
         std::to_string(evictions) + " evictions, " +
         std::to_string(inflight_waits) + " single-flight waits, " +
         std::to_string(contexts) + " pooled contexts\n";
  return out;
}

std::string EvictRequest::encode() const {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(RequestKind::Evict));
  put_u8(out, all ? 1 : 0);
  put_u64(out, key);
  return out;
}

EvictRequest EvictRequest::decode(wire::Reader& r) {
  EvictRequest q;
  q.all = r.u8() != 0;
  q.key = r.u64();
  return q;
}

std::string EvictResponse::encode() const {
  std::string out;
  put_u64(out, evicted);
  put_u64(out, bytes_freed);
  return out;
}

EvictResponse EvictResponse::decode(wire::Reader& r) {
  EvictResponse p;
  p.evicted = r.u64();
  p.bytes_freed = r.u64();
  return p;
}

std::string EvictResponse::to_text() const {
  return "[serve.evict] evicted " + std::to_string(evicted) + " entries, " +
         std::to_string(bytes_freed) + " bytes freed\n";
}

std::string ShutdownResponse::encode() const {
  std::string out;
  put_u64(out, entries_dropped);
  return out;
}

ShutdownResponse ShutdownResponse::decode(wire::Reader& r) {
  ShutdownResponse p;
  p.entries_dropped = r.u64();
  return p;
}

std::string ShutdownResponse::to_text() const {
  return "[serve.shutdown] dropping " + std::to_string(entries_dropped) +
         " cache entries, bye\n";
}

std::string encode_stats_request() {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(RequestKind::Stats));
  return out;
}

std::string encode_shutdown_request() {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(RequestKind::Shutdown));
  return out;
}

// -- response envelope ------------------------------------------------------

std::string ok_response(std::string_view body) {
  std::string out;
  out.reserve(4 + body.size());
  put_u32(out, 0);
  out.append(body);
  return out;
}

std::string error_response(std::string_view tag, std::string_view message) {
  std::string out;
  put_u32(out, 1);
  put_str(out, tag);
  put_str(out, message);
  return out;
}

std::string_view decode_response(std::string_view payload) {
  wire::Reader r(payload);
  const std::uint32_t status = r.u32();
  if (status == 0) return payload.substr(4);
  const std::string tag(r.str());
  const std::string message(r.str());
  throw std::runtime_error("serve: [" + tag + "] " + message);
}

}  // namespace tut::serve
