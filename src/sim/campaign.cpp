#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "xml/arena.hpp"
#include "xml/cursor.hpp"

namespace tut::sim {

namespace {

// ---------------------------------------------------------------------------
// Bytes and hashes
// ---------------------------------------------------------------------------

using intern::Fnv;

// Serialized integers are explicit little-endian so checkpoints, part files
// and sketch blobs compare byte-equal across hosts.
void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 8);
}

std::uint64_t take_u64(std::string_view bytes, std::size_t& cursor) {
  if (cursor + 8 > bytes.size()) {
    throw std::invalid_argument(
        "campaign: [campaign.checkpoint.corrupt] truncated binary blob");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[cursor + i]))
         << (8 * i);
  }
  cursor += 8;
  return v;
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

double take_f64(std::string_view bytes, std::size_t& cursor) {
  const std::uint64_t bits = take_u64(bytes, cursor);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void append_double(std::string& out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.6g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

// ---------------------------------------------------------------------------
// P² quantile sketch
// ---------------------------------------------------------------------------

P2Quantile::P2Quantile(double p) : p_(p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument(
        "campaign: [campaign.quantile.range] P2Quantile needs 0 < p < 1");
  }
  dn_[0] = 0;
  dn_[1] = p / 2;
  dn_[2] = p;
  dn_[3] = (1 + p) / 2;
  dn_[4] = 1;
}

void P2Quantile::add(double sample) {
  if (count_ < 5) {
    q_[count_++] = sample;
    if (count_ == 5) {
      std::sort(q_, q_ + 5);
      for (int i = 0; i < 5; ++i) n_[i] = i;
      np_[0] = 0;
      np_[1] = 2 * p_;
      np_[2] = 4 * p_;
      np_[3] = 2 + 2 * p_;
      np_[4] = 4;
    }
    return;
  }
  ++count_;
  int k;
  if (sample < q_[0]) {
    q_[0] = sample;
    k = 0;
  } else if (sample >= q_[4]) {
    q_[4] = std::max(q_[4], sample);
    k = 3;
  } else {
    k = 0;
    while (k < 3 && sample >= q_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) n_[i] += 1;
  for (int i = 0; i < 5; ++i) np_[i] += dn_[i];
  for (int i = 1; i <= 3; ++i) {
    const double d = np_[i] - n_[i];
    if ((d >= 1 && n_[i + 1] - n_[i] > 1) ||
        (d <= -1 && n_[i - 1] - n_[i] < -1)) {
      const double s = d >= 0 ? 1 : -1;
      const double cand = parabolic(i, s);
      if (q_[i - 1] < cand && cand < q_[i + 1]) {
        q_[i] = cand;
      } else {
        q_[i] = linear(i, static_cast<int>(s));
      }
      n_[i] += s;
    }
  }
}

double P2Quantile::parabolic(int i, double d) const {
  return q_[i] + d / (n_[i + 1] - n_[i - 1]) *
                     ((n_[i] - n_[i - 1] + d) * (q_[i + 1] - q_[i]) /
                          (n_[i + 1] - n_[i]) +
                      (n_[i + 1] - n_[i] - d) * (q_[i] - q_[i - 1]) /
                          (n_[i] - n_[i - 1]));
}

double P2Quantile::linear(int i, int d) const {
  return q_[i] + d * (q_[i + d] - q_[i]) / (n_[i + d] - n_[i]);
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    double sorted[5];
    std::copy(q_, q_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    // Nearest-rank on the exact samples while the sketch is still exact.
    const auto rank = static_cast<std::size_t>(p_ * (count_ - 1) + 0.5);
    return sorted[std::min<std::size_t>(rank, count_ - 1)];
  }
  return q_[2];
}

void P2Quantile::serialize(std::string& out) const {
  put_f64(out, p_);
  put_u64(out, count_);
  for (const double v : q_) put_f64(out, v);
  for (const double v : n_) put_f64(out, v);
  for (const double v : np_) put_f64(out, v);
}

P2Quantile P2Quantile::deserialize(std::string_view bytes,
                                   std::size_t& cursor) {
  const double p = take_f64(bytes, cursor);
  P2Quantile s(p);
  s.count_ = take_u64(bytes, cursor);
  for (double& v : s.q_) v = take_f64(bytes, cursor);
  for (double& v : s.n_) v = take_f64(bytes, cursor);
  for (double& v : s.np_) v = take_f64(bytes, cursor);
  return s;
}

// ---------------------------------------------------------------------------
// Digest and aggregate
// ---------------------------------------------------------------------------

std::uint64_t log_digest(const SimulationLog& log) { return log.digest(); }

std::uint64_t log_digest(const SimulationLog& log, std::string&) {
  return log.digest();
}

void CampaignAggregate::add(const ScenarioSummary& s) {
  ++scenarios;
  Fnv f;
  f.h = digest;
  f.u64(s.index);
  f.u64(s.digest);
  f.u64(s.error);
  digest = f.h;
  if (s.error != 0) {
    ++errors;
    if (s.rejection != 0) {
      ++rejected;
      switch (static_cast<RejectionCode>(s.rejection)) {
        case RejectionCode::Log:
          ++rejected_log;
          break;
        case RejectionCode::Queue:
          ++rejected_queue;
          break;
        default:
          ++rejected_other;
          break;
      }
    }
    return;
  }
  events += s.events;
  records += s.records;
  drops += s.drops;
  retries += s.retries;
  const std::uint64_t ok = scenarios - errors;
  makespan_min = ok == 1 ? s.makespan : std::min(makespan_min, s.makespan);
  makespan_max = ok == 1 ? s.makespan : std::max(makespan_max, s.makespan);
  const auto makespan = static_cast<double>(s.makespan);
  makespan_p50.add(makespan);
  makespan_p90.add(makespan);
  makespan_p99.add(makespan);
  const double latency =
      s.seg_grants == 0
          ? 0.0
          : static_cast<double>(s.seg_wait) / static_cast<double>(s.seg_grants);
  latency_p50.add(latency);
  latency_p90.add(latency);
  latency_p99.add(latency);
}

std::string CampaignAggregate::serialize() const {
  std::string out;
  put_u64(out, scenarios);
  put_u64(out, errors);
  put_u64(out, digest);
  put_u64(out, events);
  put_u64(out, records);
  put_u64(out, drops);
  put_u64(out, retries);
  put_u64(out, rejected);
  put_u64(out, rejected_log);
  put_u64(out, rejected_queue);
  put_u64(out, rejected_other);
  put_u64(out, makespan_min);
  put_u64(out, makespan_max);
  for (const P2Quantile* s : {&makespan_p50, &makespan_p90, &makespan_p99,
                              &latency_p50, &latency_p90, &latency_p99}) {
    s->serialize(out);
  }
  return out;
}

CampaignAggregate CampaignAggregate::deserialize(std::string_view bytes) {
  CampaignAggregate a;
  std::size_t cur = 0;
  a.scenarios = take_u64(bytes, cur);
  a.errors = take_u64(bytes, cur);
  a.digest = take_u64(bytes, cur);
  a.events = take_u64(bytes, cur);
  a.records = take_u64(bytes, cur);
  a.drops = take_u64(bytes, cur);
  a.retries = take_u64(bytes, cur);
  a.rejected = take_u64(bytes, cur);
  a.rejected_log = take_u64(bytes, cur);
  a.rejected_queue = take_u64(bytes, cur);
  a.rejected_other = take_u64(bytes, cur);
  a.makespan_min = take_u64(bytes, cur);
  a.makespan_max = take_u64(bytes, cur);
  for (P2Quantile* s : {&a.makespan_p50, &a.makespan_p90, &a.makespan_p99,
                        &a.latency_p50, &a.latency_p90, &a.latency_p99}) {
    *s = P2Quantile::deserialize(bytes, cur);
  }
  if (cur != bytes.size()) {
    throw std::invalid_argument(
        "campaign: [campaign.checkpoint.corrupt] trailing bytes in aggregate");
  }
  return a;
}

std::string CampaignAggregate::to_text() const {
  std::string out;
  out += "scenarios: " + std::to_string(scenarios) + " (" +
         std::to_string(errors) + " errors)\n";
  char hex[19];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out += "digest:    " + std::string(hex) + "\n";
  out += "events:    " + std::to_string(events) + "\n";
  out += "records:   " + std::to_string(records) + "\n";
  out += "drops:     " + std::to_string(drops) + "\n";
  out += "retries:   " + std::to_string(retries) + "\n";
  if (rejected != 0) {
    out += "rejected:  " + std::to_string(rejected) + " (log " +
           std::to_string(rejected_log) + ", queue " +
           std::to_string(rejected_queue) + ", other " +
           std::to_string(rejected_other) + ")\n";
  }
  out += "makespan:  min " + std::to_string(makespan_min) + "  p50 ";
  append_double(out, makespan_p50.value());
  out += "  p90 ";
  append_double(out, makespan_p90.value());
  out += "  p99 ";
  append_double(out, makespan_p99.value());
  out += "  max " + std::to_string(makespan_max) + "\n";
  out += "latency:   p50 ";
  append_double(out, latency_p50.value());
  out += "  p90 ";
  append_double(out, latency_p90.value());
  out += "  p99 ";
  append_double(out, latency_p99.value());
  out += "  (mean segment wait per grant, ticks)\n";
  return out;
}

// ---------------------------------------------------------------------------
// Sweep grammar
// ---------------------------------------------------------------------------

long Scenario::param(std::string_view name, long fallback) const {
  for (const auto& [axis, value] : params) {
    if (*axis == name) return value;
  }
  return fallback;
}

namespace {

bool reserved_axis(std::string_view name) {
  return name == "seed" || name == "horizon" || name == "plan" ||
         name == "mapping";
}

}  // namespace

std::vector<std::string> CampaignSpec::validate() const {
  std::vector<std::string> defects;
  if (axes.empty()) {
    defects.push_back("[campaign.sweep.empty] campaign has no axes");
  }
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const CampaignAxis& ax = axes[i];
    if (ax.name.empty()) {
      defects.push_back("[campaign.axis.malformed] axis " + std::to_string(i) +
                        " has no name");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (axes[j].name == ax.name) {
        defects.push_back("[campaign.axis.duplicate] duplicate axis '" +
                          ax.name + "'");
        break;
      }
    }
    if (ax.values.empty()) {
      defects.push_back("[campaign.sweep.empty] axis '" + ax.name +
                        "' has no values");
    }
    for (const long v : ax.values) {
      if (ax.name == "plan" &&
          (v < 0 || static_cast<std::size_t>(v) >= plans.size())) {
        defects.push_back("[campaign.ref.unknown] plan axis value " +
                          std::to_string(v) + " has no matching plan");
        break;
      }
      if (ax.name == "mapping" &&
          (v < 0 || static_cast<std::size_t>(v) >= mapping_names.size())) {
        defects.push_back("[campaign.ref.unknown] mapping axis value " +
                          std::to_string(v) + " has no matching mapping");
        break;
      }
      if (ax.name == "horizon" && v <= 0) {
        defects.push_back(
            "[campaign.axis.malformed] horizon axis values must be > 0");
        break;
      }
      if (ax.name == "seed" && v < 0) {
        defects.push_back(
            "[campaign.axis.malformed] seed axis values must be >= 0");
        break;
      }
    }
  }
  if (mode == Mode::Zip && !axes.empty()) {
    for (const CampaignAxis& ax : axes) {
      if (ax.values.size() != axes.front().values.size()) {
        defects.push_back("[campaign.zip.length] zip axes '" +
                          axes.front().name + "' (" +
                          std::to_string(axes.front().values.size()) +
                          " values) and '" + ax.name + "' (" +
                          std::to_string(ax.values.size()) +
                          " values) differ in length");
        break;
      }
    }
  }
  if (mode == Mode::Cartesian) {
    std::uint64_t total = 1;
    for (const CampaignAxis& ax : axes) {
      const std::uint64_t n = ax.values.size();
      if (n != 0 && total > (std::uint64_t(1) << 62) / n) {
        defects.push_back(
            "[campaign.sweep.overflow] cartesian product exceeds 2^62 "
            "scenarios");
        break;
      }
      total *= std::max<std::uint64_t>(n, 1);
    }
  }
  if (plans.empty()) {
    defects.push_back("[campaign.ref.unknown] plans list must keep entry 0 "
                      "(the empty plan)");
  }
  return defects;
}

std::uint64_t CampaignSpec::total() const {
  if (axes.empty()) return 0;
  if (mode == Mode::Zip) return axes.front().values.size();
  std::uint64_t total = 1;
  for (const CampaignAxis& ax : axes) total *= ax.values.size();
  return total;
}

Scenario CampaignSpec::scenario(std::uint64_t index) const {
  Scenario s;
  s.index = index;
  s.config = base;
  // Axis value indices: zip reads column `index` everywhere; cartesian is
  // row-major with the *last* axis fastest (radix decomposition of index).
  std::uint64_t seed_axis = 0;
  std::size_t plan_idx = std::size_t(-1);
  std::uint64_t rem = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    const CampaignAxis& ax = axes[a];
    std::uint64_t vi;
    if (mode == Mode::Zip) {
      vi = index;
    } else {
      vi = rem % ax.values.size();
      rem /= ax.values.size();
    }
    const long v = ax.values[vi];
    if (ax.name == "seed") {
      seed_axis = static_cast<std::uint64_t>(v);
    } else if (ax.name == "horizon") {
      s.config.horizon = static_cast<Time>(v);
    } else if (ax.name == "plan") {
      plan_idx = static_cast<std::size_t>(v);
    } else if (ax.name == "mapping") {
      s.image = static_cast<std::uint32_t>(v);
    } else {
      s.params.emplace_back(&ax.name, v);
    }
  }
  // Axes were visited last-to-first for the radix walk; free parameters read
  // better in declaration order.
  std::reverse(s.params.begin(), s.params.end());
  if (plan_idx != std::size_t(-1)) s.config.faults = plans[plan_idx].second;
  // Per-scenario seed: a splitmix64 draw keyed on (campaign seed, seed-axis
  // value, scenario index). Decorrelates scenarios even when the sweep has
  // no seed axis, and keeps scenario(i) pure in i.
  s.config.faults.seed = FaultRng::draw(base_seed, seed_axis, index);
  return s;
}

std::uint64_t CampaignSpec::fingerprint() const {
  Fnv f;
  f.str(name);
  f.u64(static_cast<std::uint64_t>(mode));
  f.u64(base_seed);
  f.u64(base.horizon);
  f.u64(static_cast<std::uint64_t>(base.segment_overhead_cycles));
  f.u64(base.log_runs ? 1 : 0);
  f.str(base.faults.to_xml_text());
  f.u64(axes.size());
  for (const CampaignAxis& ax : axes) {
    f.str(ax.name);
    f.u64(ax.values.size());
    for (const long v : ax.values) f.u64(static_cast<std::uint64_t>(v));
  }
  f.u64(plans.size());
  for (const auto& [pname, plan] : plans) {
    f.str(pname);
    f.str(plan.to_xml_text());
  }
  f.u64(mapping_names.size());
  for (const std::string& m : mapping_names) f.str(m);
  return f.h;
}

// ---------------------------------------------------------------------------
// XML loader
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void campaign_error(const std::string& tag,
                                 const std::string& what) {
  throw std::invalid_argument("campaign: [" + tag + "] " + what);
}

template <typename T>
T campaign_number_attr(const xml::Cursor& cur, std::string_view key,
                       T fallback) {
  const auto v = cur.attr(key);
  if (!v) return fallback;
  if constexpr (std::is_unsigned_v<T>) {
    if (!v->empty() && v->front() == '-') {
      campaign_error("campaign.axis.malformed",
                     "attribute '" + std::string(key) +
                         "' must be non-negative: '" + std::string(*v) + "'");
    }
  }
  T n{};
  const auto [p, ec] = std::from_chars(v->data(), v->data() + v->size(), n);
  if (ec != std::errc{} || p != v->data() + v->size()) {
    campaign_error("campaign.axis.malformed",
                   "attribute '" + std::string(key) + "' is not a number: '" +
                       std::string(*v) + "'");
  }
  return n;
}

std::string campaign_string_attr(const xml::Cursor& cur,
                                 std::string_view key) {
  const auto v = cur.attr(key);
  return v ? std::string(*v) : std::string();
}

std::vector<std::string_view> split_tokens(std::string_view text) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t j = i;
    while (j < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j > i) tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

}  // namespace

CampaignSpec CampaignSpec::from_xml_text(std::string_view text,
                                         const FileReader& read_file,
                                         std::size_t arena_limit) {
  CampaignSpec spec;
  xml::Arena arena(16 * 1024, arena_limit);
  xml::Cursor cur(text, arena);
  if (cur.next() != xml::Cursor::Event::StartElement ||
      cur.name() != "tut:campaign") {
    campaign_error("campaign.element.unknown",
                   "root element must be <tut:campaign>");
  }
  const std::string cname = campaign_string_attr(cur, "name");
  if (!cname.empty()) spec.name = cname;
  const std::string mode = campaign_string_attr(cur, "mode");
  if (mode == "zip") {
    spec.mode = Mode::Zip;
  } else if (mode == "cartesian" || mode.empty()) {
    spec.mode = Mode::Cartesian;
  } else {
    campaign_error("campaign.mode.unknown",
                   "mode must be 'cartesian' or 'zip', got '" + mode + "'");
  }
  spec.base_seed = campaign_number_attr<std::uint64_t>(cur, "seed", 1);
  spec.base.horizon =
      campaign_number_attr<Time>(cur, "horizon", spec.base.horizon);

  for (auto ev = cur.next(); ev != xml::Cursor::Event::End; ev = cur.next()) {
    if (ev == xml::Cursor::Event::Text ||
        ev == xml::Cursor::Event::EndElement) {
      continue;
    }
    const std::string_view elem = cur.name();
    if (elem == "plan") {
      const std::string pname = campaign_string_attr(cur, "name");
      const std::string file = campaign_string_attr(cur, "file");
      if (pname.empty() || file.empty()) {
        campaign_error("campaign.plan.unreadable",
                       "<plan> needs both name= and file=");
      }
      for (const auto& [existing, _] : spec.plans) {
        if (existing == pname) {
          campaign_error("campaign.plan.duplicate",
                         "duplicate plan '" + pname + "'");
        }
      }
      if (!read_file) {
        campaign_error("campaign.plan.unreadable",
                       "plan '" + pname + "' references file '" + file +
                           "' but no file reader was provided");
      }
      try {
        spec.plans.emplace_back(pname,
                                FaultPlan::from_xml_text(read_file(file)));
      } catch (const std::exception& e) {
        campaign_error("campaign.plan.unreadable",
                       "plan '" + pname + "' (" + file + "): " + e.what());
      }
    } else if (elem == "axis") {
      CampaignAxis ax;
      ax.name = campaign_string_attr(cur, "name");
      if (ax.name.empty()) {
        campaign_error("campaign.axis.malformed", "<axis> needs name=");
      }
      const auto values = cur.attr("values");
      if (values) {
        for (const std::string_view tok : split_tokens(*values)) {
          if (ax.name == "plan") {
            std::size_t idx = spec.plans.size();
            for (std::size_t i = 0; i < spec.plans.size(); ++i) {
              if (spec.plans[i].first == tok) idx = i;
            }
            if (idx == spec.plans.size()) {
              campaign_error("campaign.ref.unknown",
                             "plan axis references unknown plan '" +
                                 std::string(tok) +
                                 "' (declare it with <plan> first)");
            }
            ax.values.push_back(static_cast<long>(idx));
          } else if (ax.name == "mapping") {
            // Mapping names are opaque here: each first use claims the next
            // image slot, in axis order. The runner's image list and the
            // CLI's mapping resolver follow mapping_names.
            std::size_t idx = spec.mapping_names.size();
            for (std::size_t i = 0; i < spec.mapping_names.size(); ++i) {
              if (spec.mapping_names[i] == tok) idx = i;
            }
            if (idx == spec.mapping_names.size()) {
              spec.mapping_names.emplace_back(tok);
            }
            ax.values.push_back(static_cast<long>(idx));
          } else {
            long v{};
            const auto [p, ec] =
                std::from_chars(tok.data(), tok.data() + tok.size(), v);
            if (ec != std::errc{} || p != tok.data() + tok.size()) {
              campaign_error("campaign.axis.malformed",
                             "axis '" + ax.name + "' value '" +
                                 std::string(tok) + "' is not a number");
            }
            ax.values.push_back(v);
          }
        }
      } else {
        if (ax.name == "plan" || ax.name == "mapping") {
          campaign_error("campaign.axis.malformed",
                         "axis '" + ax.name + "' takes values= (names), not "
                         "from/step/count");
        }
        const auto count = campaign_number_attr<std::uint64_t>(cur, "count", 0);
        if (count == 0) {
          campaign_error("campaign.axis.malformed",
                         "axis '" + ax.name +
                             "' needs values= or a positive count=");
        }
        const long from = campaign_number_attr<long>(cur, "from", 0);
        const long step = campaign_number_attr<long>(cur, "step", 1);
        ax.values.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          ax.values.push_back(from + static_cast<long>(i) * step);
        }
      }
      spec.axes.push_back(std::move(ax));
    } else {
      campaign_error("campaign.element.unknown",
                     "unknown element <" + std::string(elem) + ">");
    }
  }

  const std::vector<std::string> defects = spec.validate();
  if (!defects.empty()) {
    std::string msg = "campaign: invalid sweep:";
    for (const std::string& d : defects) msg += "\n  - " + d;
    throw std::invalid_argument(msg);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

namespace {

/// The work-claim counter gets a cache line of its own: workers hammer it
/// with fetch_add while the reducer mutex and shard bookkeeping live right
/// next door in the shared state, and false sharing there costs more than
/// the counter itself.
struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> value{0};
  char pad[64 - sizeof(std::atomic<std::uint64_t>)];
};

// Checkpoint format v2 ("tutckpt2"): the serialized aggregate gained the
// envelope-rejection counters. Part format v3 ("tutpart3"): v2 plus the
// trailing rejection-classification word per summary. Old files fail the
// magic check with a mismatch diagnostic rather than decoding garbage.
constexpr char kCheckpointMagic[9] = "tutckpt2";
constexpr char kPartMagic[9] = "tutpart3";
constexpr std::size_t kPartHeaderSize = 8 + 8 + 8 + 8;
constexpr std::size_t kSummarySize = 12 * 8;

void put_summary(std::string& out, const ScenarioSummary& s) {
  put_u64(out, s.index);
  put_u64(out, s.digest);
  put_u64(out, s.events);
  put_u64(out, s.records);
  put_u64(out, s.makespan);
  put_u64(out, s.drops);
  put_u64(out, s.retries);
  put_u64(out, s.seg_wait);
  put_u64(out, s.seg_grants);
  put_u64(out, s.error);
  put_u64(out, s.backend);
  put_u64(out, s.rejection);
}

ScenarioSummary take_summary(std::string_view bytes, std::size_t& cursor) {
  ScenarioSummary s;
  s.index = take_u64(bytes, cursor);
  s.digest = take_u64(bytes, cursor);
  s.events = take_u64(bytes, cursor);
  s.records = take_u64(bytes, cursor);
  s.makespan = take_u64(bytes, cursor);
  s.drops = take_u64(bytes, cursor);
  s.retries = take_u64(bytes, cursor);
  s.seg_wait = take_u64(bytes, cursor);
  s.seg_grants = take_u64(bytes, cursor);
  s.error = take_u64(bytes, cursor);
  s.backend = take_u64(bytes, cursor);
  s.rejection = take_u64(bytes, cursor);
  return s;
}

std::string read_file_bytes(const std::string& path, const char* tag) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("campaign: [" + std::string(tag) +
                             "] cannot read '" + path + "'");
  }
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  // Any failure past this point must not leave the tmp file behind: a
  // partially-written tmp next to a checkpoint looks like state worth
  // salvaging and accumulates across retries.
  try {
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      os.flush();
      if (!os) {
        throw std::runtime_error("campaign: [campaign.checkpoint.io] cannot "
                                 "write '" + tmp + "'");
      }
    }
    std::filesystem::rename(tmp, path);
  } catch (const std::filesystem::filesystem_error& e) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("campaign: [campaign.checkpoint.io] cannot "
                             "rename '" + tmp + "' to '" + path +
                             "': " + e.what());
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

/// Everything the worker threads share. The claim counter is padded; the
/// reorder buffer + aggregate sit behind the mutex. `pending` holds only
/// summaries completed out of order. Without a depth cap its size is NOT
/// bounded by the thread count — fast workers keep claiming past one slow
/// scenario — so a profile's reorder_depth adds real backpressure: a worker
/// parks on `cv` until its claimed index is within `depth` of the commit
/// frontier.
struct CampaignState {
  PaddedCounter claim;
  std::uint64_t limit = 0;
  std::uint64_t depth = 0;  ///< reorder-buffer depth; 0 = unbounded

  std::mutex mu;
  std::condition_variable cv;  ///< signalled when next_commit advances
  std::uint64_t next_commit = 0;
  std::map<std::uint64_t, ScenarioSummary> pending;
  CampaignAggregate agg;
  std::ofstream parts;
  std::string parts_buf;
  std::exception_ptr io_error;
};

std::vector<std::shared_ptr<const BackendImage>> interpreter_images(
    std::vector<std::shared_ptr<const CompiledModel>> models) {
  std::vector<std::shared_ptr<const BackendImage>> images;
  images.reserve(models.size());
  for (auto& model : models) {
    images.push_back(interpreter_image(std::move(model)));
  }
  return images;
}

}  // namespace

CampaignRunner::CampaignRunner(
    std::vector<std::shared_ptr<const CompiledModel>> models, Setup setup)
    : CampaignRunner(interpreter_images(std::move(models)), std::move(setup)) {
}

CampaignRunner::CampaignRunner(
    std::vector<std::shared_ptr<const BackendImage>> images, Setup setup)
    : images_(std::move(images)), setup_(std::move(setup)) {
  if (images_.empty()) {
    throw std::invalid_argument(
        "campaign: [campaign.ref.unknown] CampaignRunner needs at least one "
        "image");
  }
  for (const auto& image : images_) {
    if (!image || !image->model()) {
      throw std::invalid_argument(
          "campaign: [campaign.ref.unknown] CampaignRunner images must be "
          "non-null images over a CompiledModel");
    }
  }
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec,
                                   const CampaignOptions& options) const {
  const auto t0 = std::chrono::steady_clock::now();
  {
    const std::vector<std::string> defects = spec.validate();
    if (!defects.empty()) {
      std::string msg = "campaign: invalid sweep:";
      for (const std::string& d : defects) msg += "\n  - " + d;
      throw std::invalid_argument(msg);
    }
  }
  if (!spec.mapping_names.empty() &&
      spec.mapping_names.size() > images_.size()) {
    throw std::invalid_argument(
        "campaign: [campaign.ref.unknown] sweep names " +
        std::to_string(spec.mapping_names.size()) +
        " mappings but the runner holds " + std::to_string(images_.size()) +
        " images");
  }
  const CampaignShard shard = options.shard;
  if (shard.count == 0 || shard.index >= shard.count) {
    throw std::invalid_argument(
        "campaign: [campaign.shard.range] shard index " +
        std::to_string(shard.index) + " of " + std::to_string(shard.count));
  }
  const std::uint64_t total = spec.total();
  // The profile's simulation caps decide whether individual scenarios
  // complete, so checkpoint/part artifacts from different envelopes must
  // never blend: mix them into the run fingerprint (not spec.fingerprint(),
  // which stays a pure function of the sweep).
  const std::uint64_t fingerprint = [&] {
    Fnv f;
    f.h = spec.fingerprint();
    f.u64(options.profile.log_records);
    f.u64(options.profile.event_queue);
    return f.h;
  }();
  // Contiguous shard ranges through 128-bit math: total * count stays exact
  // even for the 2^62-scenario ceiling validate() admits.
  const auto shard_bound = [&](std::uint64_t k) {
    return static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(total) * k / shard.count);
  };
  const std::uint64_t first = shard_bound(shard.index);
  const std::uint64_t end = shard_bound(shard.index + 1);

  CampaignState st;
  st.next_commit = first;

  // Resume: the checkpoint restores the reduction prefix; everything at or
  // beyond its `next` re-runs (scenario(i) is pure, so re-running commits
  // the exact summaries the killed run would have).
  if (options.resume) {
    if (options.checkpoint_path.empty()) {
      throw std::runtime_error(
          "campaign: [campaign.checkpoint.io] --resume needs a checkpoint "
          "path");
    }
    const std::string bytes =
        read_file_bytes(options.checkpoint_path, "campaign.checkpoint.io");
    std::size_t cur = 0;
    if (bytes.size() < 8 || bytes.compare(0, 8, kCheckpointMagic, 8) != 0) {
      throw std::runtime_error(
          "campaign: [campaign.checkpoint.corrupt] bad magic in '" +
          options.checkpoint_path + "'");
    }
    cur = 8;
    const std::uint64_t fp = take_u64(bytes, cur);
    const std::uint64_t sh_index = take_u64(bytes, cur);
    const std::uint64_t sh_count = take_u64(bytes, cur);
    const std::uint64_t ck_first = take_u64(bytes, cur);
    const std::uint64_t ck_end = take_u64(bytes, cur);
    const std::uint64_t ck_next = take_u64(bytes, cur);
    if (fp != fingerprint || sh_index != shard.index ||
        sh_count != shard.count || ck_first != first || ck_end != end) {
      throw std::runtime_error(
          "campaign: [campaign.checkpoint.mismatch] checkpoint '" +
          options.checkpoint_path +
          "' was written by a different campaign or shard");
    }
    if (ck_next < first || ck_next > end) {
      throw std::runtime_error(
          "campaign: [campaign.checkpoint.corrupt] next index out of shard "
          "range");
    }
    st.agg = CampaignAggregate::deserialize(
        std::string_view(bytes).substr(cur));
    st.next_commit = ck_next;
  }

  // Shard part file: header + one fixed-size summary per committed scenario,
  // strictly in index order. On resume, truncate to the checkpoint's prefix —
  // summaries appended after the last checkpoint re-run and re-append.
  if (!options.samples_path.empty()) {
    const std::uint64_t done = st.next_commit - first;
    if (options.resume && std::filesystem::exists(options.samples_path)) {
      const std::string bytes =
          read_file_bytes(options.samples_path, "campaign.part.io");
      // A kill can truncate the part file anywhere, including to zero bytes;
      // classify that separately from a wrong-campaign mismatch so the
      // operator knows the file is this shard's, just incomplete.
      if (bytes.size() < kPartHeaderSize) {
        throw std::runtime_error(
            "campaign: [campaign.part.truncated] part file '" +
            options.samples_path + "' holds " +
            std::to_string(bytes.size()) + " bytes, shorter than the " +
            std::to_string(kPartHeaderSize) + "-byte header");
      }
      std::size_t cur = 8;
      if (bytes.compare(0, 8, kPartMagic, 8) != 0 ||
          take_u64(bytes, cur) != fingerprint ||
          take_u64(bytes, cur) != first || take_u64(bytes, cur) != end) {
        throw std::runtime_error(
            "campaign: [campaign.part.mismatch] part file '" +
            options.samples_path + "' does not match this campaign shard");
      }
      if ((bytes.size() - kPartHeaderSize) % kSummarySize != 0) {
        throw std::runtime_error(
            "campaign: [campaign.part.truncated] part file '" +
            options.samples_path + "' ends mid-summary");
      }
      const std::uintmax_t keep = kPartHeaderSize + done * kSummarySize;
      if (bytes.size() < keep) {
        throw std::runtime_error(
            "campaign: [campaign.part.truncated] part file '" +
            options.samples_path + "' is shorter than the checkpoint prefix");
      }
      std::filesystem::resize_file(options.samples_path, keep);
      st.parts.open(options.samples_path,
                    std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::ate);
    } else {
      st.parts.open(options.samples_path,
                    std::ios::binary | std::ios::trunc);
      std::string header;
      header.append(kPartMagic, 8);
      put_u64(header, fingerprint);
      put_u64(header, first);
      put_u64(header, end);
      st.parts.write(header.data(),
                     static_cast<std::streamsize>(header.size()));
    }
    if (!st.parts) {
      throw std::runtime_error("campaign: [campaign.part.io] cannot open '" +
                               options.samples_path + "'");
    }
  }

  st.claim.value.store(st.next_commit, std::memory_order_relaxed);
  st.limit = end;
  if (options.stop_after != 0) {
    st.limit = std::min(end, st.next_commit + options.stop_after);
  }
  st.depth = options.profile.reorder_depth;

  const auto checkpoint_now = [&](std::uint64_t next) {
    std::string bytes;
    bytes.append(kCheckpointMagic, 8);
    put_u64(bytes, fingerprint);
    put_u64(bytes, shard.index);
    put_u64(bytes, shard.count);
    put_u64(bytes, first);
    put_u64(bytes, end);
    put_u64(bytes, next);
    bytes += st.agg.serialize();
    if (st.parts.is_open()) st.parts.flush();
    write_file_atomic(options.checkpoint_path, bytes);
  };

  // Worker: claim → materialize → run on a per-thread reusable context →
  // hand the summary to the in-order reducer. Logs die with the context
  // reset, so resident memory is O(threads · images), not O(scenarios).
  const auto worker = [&]() {
    std::vector<std::unique_ptr<Simulation>> ctxs(images_.size());
    for (;;) {
      const std::uint64_t i =
          st.claim.value.fetch_add(1, std::memory_order_relaxed);
      if (i >= st.limit) break;
      if (st.depth != 0) {
        // Reorder-buffer backpressure: run scenario i only once it is within
        // `depth` of the commit frontier. Deadlock-free for depth >= 1:
        // claims are dense, so the worker holding i == next_commit always
        // passes the predicate and unblocks everyone else by committing.
        std::unique_lock<std::mutex> lock(st.mu);
        st.cv.wait(lock, [&] {
          return st.io_error || i < st.next_commit + st.depth;
        });
        if (st.io_error) break;
      }
      Scenario sc = spec.scenario(i);
      if (options.profile.bounds_simulation()) {
        sc.config.envelope = options.profile;
        // Concurrent workers must never share one spill file; spilling is a
        // single-run CLI feature and campaign logs are hash-and-release.
        sc.config.envelope.log_spill_path.clear();
      }
      const auto fresh_summary = [&] {
        ScenarioSummary f;
        f.index = i;
        f.backend = images_[sc.image]->content_hash();
        return f;
      };
      ScenarioSummary s = fresh_summary();
      std::unique_ptr<Simulation>& ctx = ctxs[sc.image];
      try {
        if (!ctx) {
          ctx = std::make_unique<Simulation>(images_[sc.image], sc.config);
        } else {
          ctx->reset(sc.config);
        }
        if (setup_) setup_(*ctx, sc);
        ctx->run();
        const SimulationLog& log = ctx->log();
        s.digest = log.digest();
        s.events = ctx->events_dispatched();
        s.records = log.size();
        const auto& recs = log.compact_records();
        if (!recs.empty()) s.makespan = recs.back().time;
        for (const SimulationLog::Compact& r : recs) {
          if (r.kind == LogRecord::Kind::Drop) ++s.drops;
          if (r.kind == LogRecord::Kind::Retry) ++s.retries;
        }
        for (const auto& [name, seg] : ctx->segment_stats()) {
          s.seg_wait += seg.wait_time;
          s.seg_grants += seg.grants;
        }
      } catch (const EnvelopeError& e) {
        // A classified rejection: the scenario hit a resource ceiling. The
        // EnvelopeError message is deterministic (tag + cap + sim time), so
        // its hash — and therefore the campaign digest — is identical across
        // thread counts, shards and backends.
        ctx.reset();
        s = fresh_summary();
        Fnv f;
        f.str(e.what());
        s.error = f.h;
        s.rejection =
            static_cast<std::uint64_t>(classify_envelope_tag(e.tag()));
      } catch (const std::exception& e) {
        // A throw can leave the context mid-run; drop it so the next claim
        // rebuilds from the pristine image. The error digest is the message
        // hash — deterministic, so failed scenarios still cross-check.
        ctx.reset();
        s = fresh_summary();
        Fnv f;
        f.str(e.what());
        s.error = f.h;
      }

      std::lock_guard<std::mutex> lock(st.mu);
      if (st.io_error) {
        st.cv.notify_all();
        break;
      }
      st.pending.emplace(i, s);
      while (!st.pending.empty() &&
             st.pending.begin()->first == st.next_commit) {
        const ScenarioSummary& head = st.pending.begin()->second;
        st.agg.add(head);
        if (st.parts.is_open()) {
          st.parts_buf.clear();
          put_summary(st.parts_buf, head);
          st.parts.write(st.parts_buf.data(),
                         static_cast<std::streamsize>(st.parts_buf.size()));
        }
        if (options.on_summary) options.on_summary(head);
        st.pending.erase(st.pending.begin());
        ++st.next_commit;
        if (!options.checkpoint_path.empty() && options.checkpoint_every &&
            (st.next_commit - first) % options.checkpoint_every == 0 &&
            st.next_commit != end) {
          try {
            checkpoint_now(st.next_commit);
          } catch (...) {
            st.io_error = std::current_exception();
          }
        }
      }
      // Wake workers parked on the reorder-depth backpressure: the commit
      // frontier moved (or an I/O error ended the run).
      if (st.depth != 0) st.cv.notify_all();
    }
  };

  std::vector<std::string> notes;
  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  if (options.profile.concurrency != 0 &&
      threads > options.profile.concurrency) {
    // Semantics-preserving: results are thread-count-invariant, so clamping
    // is a capacity decision, not a rejection — surfaced as a note.
    notes.push_back("[envelope.concurrency.capped] " + std::to_string(threads) +
                    " workers capped at " +
                    std::to_string(options.profile.concurrency) +
                    " by profile '" + options.profile.name + "'");
    threads = options.profile.concurrency;
  }
  if (st.limit > st.next_commit) {
    threads = std::min<std::uint64_t>(threads, st.limit - st.next_commit);
  } else {
    threads = 1;
  }
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (st.io_error) std::rethrow_exception(st.io_error);

  if (st.parts.is_open()) {
    st.parts.flush();
    if (!st.parts) {
      throw std::runtime_error("campaign: [campaign.part.io] cannot write '" +
                               options.samples_path + "'");
    }
  }
  if (!options.checkpoint_path.empty()) checkpoint_now(st.next_commit);

  CampaignResult result;
  result.aggregate = st.agg;
  result.first = first;
  result.end = end;
  result.next = st.next_commit;
  result.completed = st.next_commit == end;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.notes = std::move(notes);
  return result;
}

std::uint64_t part_file_bytes(std::uint64_t scenarios) noexcept {
  return kPartHeaderSize + scenarios * kSummarySize;
}

CampaignResult merge_campaign_parts(const std::vector<std::string>& paths) {
  struct Part {
    std::uint64_t first = 0;
    std::uint64_t end = 0;
    std::string bytes;
  };
  if (paths.empty()) {
    throw std::runtime_error(
        "campaign: [campaign.part.gap] no part files to merge");
  }
  std::vector<Part> parts;
  parts.reserve(paths.size());
  std::uint64_t fingerprint = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Part part;
    part.bytes = read_file_bytes(paths[i], "campaign.part.io");
    if (part.bytes.size() < kPartHeaderSize) {
      throw std::runtime_error("campaign: [campaign.part.truncated] '" +
                               paths[i] + "' holds " +
                               std::to_string(part.bytes.size()) +
                               " bytes, shorter than the " +
                               std::to_string(kPartHeaderSize) +
                               "-byte header");
    }
    if (part.bytes.compare(0, 8, kPartMagic, 8) != 0) {
      throw std::runtime_error("campaign: [campaign.part.corrupt] '" +
                               paths[i] + "' is not a campaign part file");
    }
    std::size_t cur = 8;
    const std::uint64_t fp = take_u64(part.bytes, cur);
    part.first = take_u64(part.bytes, cur);
    part.end = take_u64(part.bytes, cur);
    if (i == 0) {
      fingerprint = fp;
    } else if (fp != fingerprint) {
      throw std::runtime_error("campaign: [campaign.part.mismatch] '" +
                               paths[i] +
                               "' comes from a different campaign");
    }
    const std::size_t payload = part.bytes.size() - kPartHeaderSize;
    if (payload % kSummarySize != 0 ||
        payload / kSummarySize < part.end - part.first) {
      // A short or mid-summary payload is a truncation (killed shard, partial
      // copy); only an over-long one is corrupt.
      throw std::runtime_error("campaign: [campaign.part.truncated] '" +
                               paths[i] + "' holds " +
                               std::to_string(payload / kSummarySize) +
                               " whole summaries for range [" +
                               std::to_string(part.first) + ", " +
                               std::to_string(part.end) + ")");
    }
    if (payload / kSummarySize != part.end - part.first) {
      throw std::runtime_error("campaign: [campaign.part.corrupt] '" +
                               paths[i] + "' holds " +
                               std::to_string(payload / kSummarySize) +
                               " summaries for range [" +
                               std::to_string(part.first) + ", " +
                               std::to_string(part.end) + ")");
    }
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end(),
            [](const Part& a, const Part& b) { return a.first < b.first; });
  if (parts.front().first != 0) {
    throw std::runtime_error(
        "campaign: [campaign.part.gap] coverage does not start at scenario 0");
  }
  // Replaying the per-scenario summaries in global index order through a
  // fresh aggregate reproduces the single-process reduction byte for byte —
  // this is what makes P² sketches (not mergeable per se) shardable.
  CampaignAggregate agg;
  std::uint64_t expected = 0;
  for (const Part& part : parts) {
    if (part.first != expected) {
      throw std::runtime_error(
          "campaign: [campaign.part.gap] missing scenarios [" +
          std::to_string(expected) + ", " + std::to_string(part.first) + ")");
    }
    std::size_t cur = kPartHeaderSize;
    for (std::uint64_t i = part.first; i < part.end; ++i) {
      const ScenarioSummary s = take_summary(part.bytes, cur);
      if (s.index != i) {
        throw std::runtime_error(
            "campaign: [campaign.part.corrupt] summary index " +
            std::to_string(s.index) + " where " + std::to_string(i) +
            " was expected");
      }
      agg.add(s);
    }
    expected = part.end;
  }
  CampaignResult result;
  result.aggregate = agg;
  result.first = 0;
  result.end = expected;
  result.next = expected;
  result.completed = true;
  return result;
}

}  // namespace tut::sim
