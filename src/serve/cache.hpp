// serve::ModelCache — the content-hash compiled-model cache behind the
// `tut serve` daemon.
//
// Every single-shot `tut` invocation pays the full pipeline — XML parse,
// UML lowering, sim::CompiledModel::build, and for the native backend a
// compiler shell-out — before the first event fires. The cache amortizes
// that across requests: the key is an FNV-1a content hash over (model XML
// bytes, backend choice, profile caps) — mapping and platform live inside
// the XML, so a remapped model is a different key by construction — and the
// value owns the whole lowered chain (parsed uml::Model, mapping::SystemView,
// the behaviour image over the shared CompiledModel) plus the cached lint
// report and a pool of reusable Simulation contexts, so a warm request
// skips straight to Simulation::reset + run.
//
// Concurrency contract:
//  - lookups take one of kShards sharded mutexes (key-hashed), never a
//    global lock;
//  - builds are single-flight: concurrent requests for the same missing key
//    wait on the one in-flight build (counted in stats as inflight_waits)
//    instead of lowering the same model N times;
//  - eviction is LRU under the profile's cache_bytes ceiling (0 =
//    unbounded): entries carry a logical-clock stamp touched on every hit,
//    and inserting past the ceiling evicts oldest-stamped entries until the
//    cache fits. Capacity decisions only — an evicted model rebuilds to a
//    byte-identical image (same digests) on its next request, and in-flight
//    users of an evicted entry keep it alive through their shared_ptr.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mapping/mapping.hpp"
#include "sim/backend.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "uml/model.hpp"

namespace tut::serve {

/// Monotonic counters plus the current footprint. All counters are
/// process-lifetime; entries/bytes reflect the instant of the call.
struct CacheStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t capacity = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t builds = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inflight_waits = 0;
  std::uint64_t contexts = 0;  ///< pooled Simulation contexts, all entries
};

class ModelCache {
 public:
  /// One cached compiled model: the ownership chain XML → Model →
  /// SystemView → CompiledModel → BackendImage (interpreter or native),
  /// immutable after build.
  /// The lint report and the context pool are the only mutable members,
  /// each behind its own mutex.
  struct Entry {
    std::uint64_t key = 0;
    std::string xml;  ///< owned copy; everything below borrows from it
    std::unique_ptr<uml::Model> model;
    std::unique_ptr<mapping::SystemView> view;
    std::shared_ptr<const sim::BackendImage> image;  ///< never null
    std::size_t bytes = 0;  ///< footprint estimate used for the byte ceiling
    std::atomic<std::uint64_t> stamp{0};  ///< LRU logical clock

    // Cached lint renderings (filled lazily by Engine under lint_mu).
    std::mutex lint_mu;
    bool lint_done = false;
    bool lint_errors = false;
    bool lint_warnings = false;
    std::string lint_text;
    std::string lint_json;

    // Reusable Simulation contexts over this entry's image.
    std::mutex ctx_mu;
    std::vector<std::unique_ptr<sim::Simulation>> pool;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct Acquired {
    EntryPtr entry;
    bool warm = false;  ///< true: cache hit (including single-flight waits)
  };

  /// `profile` supplies the two caps the cache consumes: cache_bytes (the
  /// eviction ceiling) and arena_bytes (the per-request parse arena limit).
  /// Its caps are also folded into every key, so one daemon never mixes
  /// entries across envelopes.
  explicit ModelCache(const sim::ResourceProfile& profile);

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  /// The content-hash key of one request: FNV-1a over the model XML bytes,
  /// the backend word and the profile caps.
  std::uint64_t key_of(std::string_view model_xml,
                       sim::Backend backend) const;

  /// Looks up or builds the entry for `model_xml` under `backend`.
  /// Zero-copy ingest: `model_xml` may alias the request buffer — the cache
  /// copies it into the entry only on a miss, and the parse arena lives
  /// under the profile's arena_bytes ceiling. Throws whatever the pipeline
  /// throws (xml::ParseError, "model is not executable", [native.*]) after
  /// unblocking any single-flight waiters with the same error.
  Acquired acquire(std::string_view model_xml, sim::Backend backend);

  /// Pops a pooled Simulation context (resetting it under `config`) or
  /// constructs a fresh one over the entry's image. Byte-identity of the
  /// two paths is the Simulation::reset contract.
  std::unique_ptr<sim::Simulation> acquire_context(const EntryPtr& entry,
                                                   const sim::Config& config);
  /// Returns a context to the entry's pool (bounded; surplus is dropped).
  void release_context(const EntryPtr& entry,
                       std::unique_ptr<sim::Simulation> sim);

  /// Removes one entry by key. Returns true when it was present.
  bool evict(std::uint64_t key);
  /// Empties the cache; returns (entries, bytes) removed.
  std::pair<std::uint64_t, std::uint64_t> evict_all();

  CacheStats stats() const;

 private:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kPoolPerEntry = 8;

  /// Single-flight rendezvous for one in-progress build.
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    EntryPtr result;
    std::exception_ptr error;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<std::uint64_t, EntryPtr> entries;
    std::map<std::uint64_t, std::shared_ptr<Inflight>> building;
  };

  Shard& shard_of(std::uint64_t key) { return shards_[key % kShards]; }
  EntryPtr build_entry(std::uint64_t key, std::string_view model_xml,
                       sim::Backend backend) const;
  void maybe_evict();

  sim::ResourceProfile profile_;
  Shard shards_[kShards];
  std::mutex evict_mu_;  ///< serializes evictors; never held under a shard mu
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> inflight_waits_{0};
  std::atomic<std::uint64_t> contexts_{0};
};

}  // namespace tut::serve
