#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

namespace tutbench {

namespace {

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

double Ledger::attributed_pct() const {
  if (op_ns <= 0) return 0;
  const auto root = op_self_ns.lower_bound("op.");
  double unattributed = 0;
  for (auto it = root; it != op_self_ns.end() && it->first.rfind("op.", 0) == 0;
       ++it) {
    unattributed += it->second;
  }
  return 100.0 * (op_ns - unattributed) / op_ns;
}

Ledger make_ledger(const std::vector<const TraceBuffer*>& buffers) {
  Ledger ledger;
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<SpanRec>& spans = buffer->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::size_t> root(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      if (s.parent < 0) {
        root[i] = i;
      } else {
        const auto p = static_cast<std::size_t>(s.parent);
        root[i] = root[p];
        child_ns[p] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      const char* root_name = spans[root[i]].name;
      if (starts_with(root_name, "probe.")) {
        ledger.probe_ns[s.name + 6] += dur;
        continue;
      }
      const bool setup = std::strcmp(root_name, "setup") == 0;
      if (s.parent < 0) {
        if (setup) {
          ledger.setup_ns += dur;
        } else {
          ledger.op_ns += dur;
        }
      }
      (setup ? ledger.setup_self_ns : ledger.op_self_ns)[s.name] +=
          dur - child_ns[i];
    }
  }
  return ledger;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const TraceBuffer*>& buffers) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const TraceBuffer* b : buffers) {
    for (const SpanRec& s : b->spans()) t0 = std::min(t0, s.start_ns);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char line[320];
  for (const TraceBuffer* b : buffers) {
    const std::vector<SpanRec>& spans = b->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"op\":%llu,\"id\":%zu,\"parent\":%d}}",
                    first ? "" : ",", s.name,
                    static_cast<int>(std::strcspn(s.name, ".")), s.name,
                    b->tid(), static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.op), i, s.parent);
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace tutbench
