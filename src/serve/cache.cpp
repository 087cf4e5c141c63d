#include "serve/cache.hpp"

#include <cstring>
#include <utility>

#include "codegen/native.hpp"
#include "serve/protocol.hpp"
#include "uml/serialize.hpp"

namespace tut::serve {

namespace {

// FNV-1a 64 mixing, delimited per field (same constants as the log
// digests), processed four 64-bit lanes at a time. The byte-serial FNV
// loop is a single multiply-latency dependency chain (~3 cycles/byte) —
// over a 30 KB model XML that alone costs ~45 us, dominating a warm
// request. Four independent lanes (seeded with distinct rotations of the
// offset basis, folded together length-salted at the end) run in the
// multiplier pipeline concurrently, cutting the hash to well under a tenth
// of that while keeping the key deterministic, order-sensitive and
// 64-bit-distributed. Keys are in-memory only (never persisted), so the
// lane layout can evolve freely.
struct Fnv {
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kOffset;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    if (n >= 64) {
      std::uint64_t lane[4] = {h, h ^ 0x9e3779b97f4a7c15ull,
                               h ^ 0xc2b2ae3d27d4eb4full,
                               h ^ 0x165667b19e3779f9ull};
      while (n >= 32) {
        std::uint64_t w[4];
        std::memcpy(w, p, 32);
        for (int i = 0; i < 4; ++i) lane[i] = (lane[i] ^ w[i]) * kPrime;
        p += 32;
        n -= 32;
      }
      h = lane[0];
      for (int i = 1; i < 4; ++i) h = (h ^ lane[i]) * kPrime;
    }
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
  }
  void str(std::string_view s) {
    bytes(s.data(), s.size());
    u64(s.size());  // length-salt: lane folding must not erase boundaries
    const unsigned char delim = 0xff;
    bytes(&delim, 1);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

}  // namespace

ModelCache::ModelCache(const sim::ResourceProfile& profile)
    : profile_(profile) {}

std::uint64_t ModelCache::key_of(std::string_view model_xml,
                                 sim::Backend backend) const {
  Fnv fnv;
  fnv.str(model_xml);
  fnv.u64(backend == sim::Backend::Native ? 1 : 0);
  // Profile caps: entries lowered under different envelopes never collide
  // (the daemon has one profile, so in practice this salts the key space).
  fnv.u64(profile_.log_records);
  fnv.u64(profile_.event_queue);
  fnv.u64(profile_.arena_bytes);
  fnv.u64(profile_.cache_bytes);
  return fnv.h;
}

ModelCache::EntryPtr ModelCache::build_entry(std::uint64_t key,
                                             std::string_view model_xml,
                                             sim::Backend backend) const {
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->xml = std::string(model_xml);
  // The parse reads straight from the request bytes through xml::Cursor; the
  // arena lives under the profile's existing ceiling.
  entry->model = uml::from_xml_text(
      entry->xml, static_cast<std::size_t>(profile_.arena_bytes));
  entry->view = std::make_unique<mapping::SystemView>(*entry->model);
  auto compiled = sim::CompiledModel::build(*entry->view);
  entry->image = backend == sim::Backend::Native
                     ? codegen::NativeImage::build(std::move(compiled))
                     : sim::interpreter_image(std::move(compiled));
  // Footprint estimate for the byte ceiling: the XML copy plus a per-element
  // charge for the parsed model + lowered tables, plus a flat base (route
  // tables, name maps) and a native-image surcharge (dlopen'ed .so + host
  // tables). Deliberately coarse — eviction needs monotonicity in model
  // size, not accounting precision.
  entry->bytes = 4096 + entry->xml.size() + 256 * entry->model->size() +
                 (backend == sim::Backend::Native ? 65536 : 0);
  return entry;
}

ModelCache::Acquired ModelCache::acquire(std::string_view model_xml,
                                         sim::Backend backend) {
  const std::uint64_t key = key_of(model_xml, backend);
  Shard& shard = shard_of(key);

  std::shared_ptr<Inflight> flight;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    if (const auto it = shard.entries.find(key); it != shard.entries.end()) {
      it->second->stamp.store(++clock_, std::memory_order_relaxed);
      ++hits_;
      return {it->second, true};
    }
    if (const auto it = shard.building.find(key);
        it != shard.building.end()) {
      flight = it->second;
      ++inflight_waits_;
    } else {
      flight = std::make_shared<Inflight>();
      shard.building.emplace(key, flight);
      builder = true;
      ++misses_;
    }
  }

  if (!builder) {
    // Single-flight wait: the one builder finishes (or fails) for everyone.
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error != nullptr) std::rethrow_exception(flight->error);
    ++hits_;
    return {flight->result, true};
  }

  EntryPtr entry;
  try {
    entry = build_entry(key, model_xml, backend);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(shard.mu);
      shard.building.erase(key);
    }
    {
      const std::lock_guard<std::mutex> lock(flight->mu);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    throw;
  }

  entry->stamp.store(++clock_, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.emplace(key, entry);
    shard.building.erase(key);
  }
  ++builds_;
  ++entries_;
  bytes_ += entry->bytes;
  {
    const std::lock_guard<std::mutex> lock(flight->mu);
    flight->result = entry;
    flight->done = true;
  }
  flight->cv.notify_all();
  maybe_evict();
  return {entry, false};
}

void ModelCache::maybe_evict() {
  const std::uint64_t cap = profile_.cache_bytes;
  if (cap == 0) return;
  // One evictor at a time; shard locks are taken one by one below it (the
  // reverse order never happens, so this cannot deadlock).
  const std::lock_guard<std::mutex> evict_lock(evict_mu_);
  while (bytes_.load() > cap) {
    Shard* victim_shard = nullptr;
    std::uint64_t victim_key = 0;
    std::uint64_t victim_stamp = ~std::uint64_t{0};
    bool found = false;
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [key, entry] : shard.entries) {
        const std::uint64_t stamp =
            entry->stamp.load(std::memory_order_relaxed);
        if (!found || stamp < victim_stamp) {
          found = true;
          victim_shard = &shard;
          victim_key = key;
          victim_stamp = stamp;
        }
      }
    }
    if (!found) break;
    const std::lock_guard<std::mutex> lock(victim_shard->mu);
    const auto it = victim_shard->entries.find(victim_key);
    if (it == victim_shard->entries.end()) continue;
    // A hit may have refreshed the stamp since the scan; the entry is then
    // no longer the LRU victim — rescan instead of evicting hot data.
    if (it->second->stamp.load(std::memory_order_relaxed) != victim_stamp) {
      continue;
    }
    contexts_ -= [&] {
      const std::lock_guard<std::mutex> ctx_lock(it->second->ctx_mu);
      return static_cast<std::uint64_t>(it->second->pool.size());
    }();
    bytes_ -= it->second->bytes;
    --entries_;
    ++evictions_;
    victim_shard->entries.erase(it);
  }
}

std::unique_ptr<sim::Simulation> ModelCache::acquire_context(
    const EntryPtr& entry, const sim::Config& config) {
  {
    const std::lock_guard<std::mutex> lock(entry->ctx_mu);
    if (!entry->pool.empty()) {
      std::unique_ptr<sim::Simulation> sim = std::move(entry->pool.back());
      entry->pool.pop_back();
      --contexts_;
      sim->reset(config);
      return sim;
    }
  }
  return std::make_unique<sim::Simulation>(entry->image, config);
}

void ModelCache::release_context(const EntryPtr& entry,
                                 std::unique_ptr<sim::Simulation> sim) {
  const std::lock_guard<std::mutex> lock(entry->ctx_mu);
  if (entry->pool.size() >= kPoolPerEntry) return;  // surplus: drop
  entry->pool.push_back(std::move(sim));
  ++contexts_;
}

bool ModelCache::evict(std::uint64_t key) {
  Shard& shard = shard_of(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return false;
  {
    const std::lock_guard<std::mutex> ctx_lock(it->second->ctx_mu);
    contexts_ -= static_cast<std::uint64_t>(it->second->pool.size());
  }
  bytes_ -= it->second->bytes;
  --entries_;
  ++evictions_;
  shard.entries.erase(it);
  return true;
}

std::pair<std::uint64_t, std::uint64_t> ModelCache::evict_all() {
  std::uint64_t count = 0;
  std::uint64_t freed = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      {
        const std::lock_guard<std::mutex> ctx_lock(entry->ctx_mu);
        contexts_ -= static_cast<std::uint64_t>(entry->pool.size());
      }
      freed += entry->bytes;
      ++count;
      bytes_ -= entry->bytes;
      --entries_;
      ++evictions_;
    }
    shard.entries.clear();
  }
  return {count, freed};
}

CacheStats ModelCache::stats() const {
  CacheStats s;
  s.entries = entries_.load();
  s.bytes = bytes_.load();
  s.capacity = profile_.cache_bytes;
  s.hits = hits_.load();
  s.misses = misses_.load();
  s.builds = builds_.load();
  s.evictions = evictions_.load();
  s.inflight_waits = inflight_waits_.load();
  s.contexts = contexts_.load();
  return s;
}

}  // namespace tut::serve
