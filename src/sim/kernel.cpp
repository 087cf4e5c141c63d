#include "sim/kernel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/resource.hpp"

namespace tut::sim {

void Kernel::schedule_at(Time at, Handler fn) {
  if (at < now_) {
    throw std::logic_error("cannot schedule an event in the past (at=" +
                           std::to_string(at) +
                           ", now=" + std::to_string(now_) + ")");
  }
  if (capacity_ != 0 && pending() >= capacity_) {
    throw EnvelopeError("envelope.queue.full", now_,
                        "event queue reached its envelope of " +
                            std::to_string(capacity_) + " pending events");
  }
  if (at == now_) {
    // Due immediately: FIFO bucket, no heap traffic. Anything already in the
    // heap at this time carries a smaller seq and is served first by run().
    bucket_.push_back(std::move(fn));
    return;
  }
  heap_.push_back(Entry{at, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint64_t Kernel::run(Time horizon) {
  std::uint64_t count = 0;
  while (now_ <= horizon) {
    if (!heap_.empty() && heap_.front().at <= now_) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Handler fn = std::move(heap_.back().fn);
      heap_.pop_back();
      fn();
    } else if (!bucket_.empty()) {
      Handler fn = std::move(bucket_.front());
      bucket_.pop_front();
      fn();
    } else if (!heap_.empty() && heap_.front().at <= horizon) {
      now_ = heap_.front().at;
      continue;
    } else {
      break;
    }
    ++count;
    ++dispatched_;
  }
  if (now_ < horizon) now_ = horizon;
  return count;
}

}  // namespace tut::sim
