// tut::serve — the wire protocol of the simulation service.
//
// `tut serve` keeps compiled models hot in a long-lived daemon; this module
// defines the length-prefixed binary frames the daemon and the thin client
// exchange over a local TCP connection:
//
//   frame    := magic "TUTS" | u32 payload-length | payload
//   request  := u32 kind | kind-specific body
//   response := u32 status | body          (status 0)
//             | u32 status | tag | message (status != 0)
//
// All integers are little-endian; strings are u32 length + bytes. The
// payload layer is deliberately independent of sockets: Engine (server.hpp)
// consumes and produces payloads as strings, so tests and benches drive the
// full request path in-process without a network in the loop.
//
// Every malformed-input path is a classified ProtocolError with a stable
// "[serve.*]" rule tag, mirroring the [campaign.*]/[profile.*]/[native.*]
// conventions: [serve.frame.truncated] for short reads (a connection that
// dies mid-frame is an expected event, not a raw exception),
// [serve.frame.magic] for garbage bytes, [serve.frame.oversize] for frames
// above the hard ceiling, [serve.request.unknown] for an unknown kind,
// [serve.request.backend] for a backend word sim::Backend does not define.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/backend.hpp"

namespace tut::serve {

/// A classified protocol defect. The message embeds the rule tag
/// ("serve: [serve.frame.truncated] ..."), so client-side greps and server
/// logs stay attributable.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string tag, const std::string& what)
      : std::runtime_error("serve: [" + tag + "] " + what),
        tag_(std::move(tag)) {}

  /// The rule tag without brackets, e.g. "serve.frame.truncated".
  const std::string& tag() const noexcept { return tag_; }

 private:
  std::string tag_;
};

namespace wire {

/// Frame magic: the four raw bytes 'T' 'U' 'T' 'S'.
inline constexpr char kMagic[4] = {'T', 'U', 'T', 'S'};
/// Hard frame ceiling (magic + length excluded). A length above this is a
/// [serve.frame.oversize] error, never an allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 256u << 20;

// -- little-endian primitive writers ---------------------------------------
inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Wraps a payload into one frame (magic + length + payload).
std::string frame(std::string_view payload);

/// Bounds-checked little-endian reader over one payload. Every overrun
/// throws ProtocolError("serve.frame.truncated") — a frame that decodes
/// short is indistinguishable from a connection cut mid-write, and both get
/// the same classified answer.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// A length-prefixed string view into the payload (zero-copy: the view
  /// aliases the request buffer, which outlives the request).
  std::string_view str();

  bool done() const noexcept { return pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  void need(std::size_t n) const;
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace wire

/// Request kinds (the first u32 of every request payload).
enum class RequestKind : std::uint32_t {
  Simulate = 1,
  Batch = 2,
  Lint = 3,
  Campaign = 4,
  Stats = 5,
  Evict = 6,
  Shutdown = 7,
};

/// One periodic environment-injection stream: the server injects
/// `signal` through boundary port `port` at first = period + first_offset,
/// then every `period` ticks until the horizon ((horizon - first) / period
/// occurrences — exactly tutmac::System::inject_workload's arithmetic, so a
/// served TUTMAC run is byte-identical to a single-shot CLI run). When
/// `param` is non-empty, a campaign scenario's free axis of that name
/// overrides `period`.
struct WorkloadEntry {
  std::string port;
  std::string signal;
  std::string param;
  std::uint64_t period = 0;
  std::uint64_t first_offset = 0;
  std::vector<std::int64_t> args;
};

void encode_workload(std::string& out, const std::vector<WorkloadEntry>& w);
std::vector<WorkloadEntry> decode_workload(wire::Reader& r);

// -- simulate ---------------------------------------------------------------

struct SimulateRequest {
  std::string model_xml;
  sim::Backend backend = sim::Backend::Interpreter;
  std::uint64_t horizon = 0;
  bool has_seed = false;
  std::uint64_t seed = 0;
  std::string faults_xml;
  bool want_log = false;
  std::vector<WorkloadEntry> workload;

  std::string encode() const;
  static SimulateRequest decode(wire::Reader& r);
};

struct SimulateResponse {
  bool warm = false;  ///< compiled image came from the cache
  std::string backend_name;
  std::uint64_t image_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  std::uint64_t end_time = 0;
  std::uint64_t digest = 0;  ///< sim::log_digest of the rendered log
  std::string log_text;      ///< empty unless want_log

  std::string encode() const;
  static SimulateResponse decode(wire::Reader& r);
};

// -- batch ------------------------------------------------------------------

struct BatchRequest {
  std::string model_xml;
  sim::Backend backend = sim::Backend::Interpreter;
  std::uint64_t horizon = 0;
  std::uint64_t seed = 0;  ///< scenario i runs fault seed `seed + i`
  std::uint32_t count = 1;
  std::uint32_t threads = 0;
  std::string faults_xml;
  std::vector<WorkloadEntry> workload;

  std::string encode() const;
  static BatchRequest decode(wire::Reader& r);
};

struct BatchResponse {
  struct Row {
    std::uint64_t seed = 0;
    std::uint64_t events = 0;
    std::uint64_t records = 0;
    std::uint64_t end_time = 0;
    std::uint64_t hash = 0;
    std::string error;
  };
  bool warm = false;
  std::string backend_name;
  std::uint64_t image_hash = 0;
  std::vector<Row> rows;

  std::string encode() const;
  static BatchResponse decode(wire::Reader& r);
};

// -- lint -------------------------------------------------------------------

struct LintRequest {
  std::string model_xml;
  bool json = false;
  bool werror = false;

  std::string encode() const;
  static LintRequest decode(wire::Reader& r);
};

struct LintResponse {
  bool warm = false;  ///< report came from the cache
  bool ok = false;    ///< report.ok(werror)
  std::string text;   ///< rendered report (text or JSON per request)

  std::string encode() const;
  static LintResponse decode(wire::Reader& r);
};

// -- campaign ---------------------------------------------------------------

struct CampaignRequest {
  std::string campaign_xml;
  sim::Backend backend = sim::Backend::Interpreter;
  std::uint32_t threads = 0;
  /// One serialized model per mapping-axis name, in spec.mapping_names
  /// order ("paper" alone when the sweep names none).
  std::vector<std::pair<std::string, std::string>> images;
  /// Client-side files the campaign references (fault plans): path as the
  /// campaign names it → content. The server never reads client disks.
  std::vector<std::pair<std::string, std::string>> files;
  std::vector<WorkloadEntry> workload;

  std::string encode() const;
  static CampaignRequest decode(wire::Reader& r);
};

struct CampaignResponse {
  std::uint32_t warm_images = 0;  ///< how many images were cache hits
  std::string backend_name;
  std::uint64_t digest = 0;
  std::uint64_t scenarios = 0;
  bool completed = true;
  std::string text;  ///< CampaignAggregate::to_text block

  std::string encode() const;
  static CampaignResponse decode(wire::Reader& r);
};

// -- admin ------------------------------------------------------------------

struct StatsResponse {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t capacity = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t builds = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inflight_waits = 0;
  std::uint64_t contexts = 0;

  std::string encode() const;
  static StatsResponse decode(wire::Reader& r);
  /// One "[serve.stats] ..." line per the admin-output tag convention.
  std::string to_text() const;
};

struct EvictRequest {
  bool all = false;
  std::uint64_t key = 0;  ///< content-hash key when !all

  std::string encode() const;
  static EvictRequest decode(wire::Reader& r);
};

struct EvictResponse {
  std::uint64_t evicted = 0;
  std::uint64_t bytes_freed = 0;

  std::string encode() const;
  static EvictResponse decode(wire::Reader& r);
  /// One "[serve.evict] ..." line.
  std::string to_text() const;
};

struct ShutdownResponse {
  std::uint64_t entries_dropped = 0;

  std::string encode() const;
  static ShutdownResponse decode(wire::Reader& r);
  /// One "[serve.shutdown] ..." line.
  std::string to_text() const;
};

/// Plain requests that carry no body beyond their kind.
std::string encode_stats_request();
std::string encode_shutdown_request();

// -- response envelope ------------------------------------------------------

/// Wraps a response body as status 0.
std::string ok_response(std::string_view body);
/// Builds an error response (status 1, tag + message).
std::string error_response(std::string_view tag, std::string_view message);
/// Splits a response payload: returns the body on status 0, throws
/// std::runtime_error carrying the server's "[tag] message" otherwise.
std::string_view decode_response(std::string_view payload);

}  // namespace tut::serve
