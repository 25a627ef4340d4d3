// Discrete-event queue: one-shot callbacks plus keyed timers.
//
// Both simulators are driven off this queue. Every entry takes a sequence
// number from one monotone counter when it is scheduled or (re)armed, and
// entries run in (time, seq) order: events firing at identical times run in
// the order they were scheduled, so simulations are fully deterministic.
//
// A *callback* is a std::function run once. The heap is a plain vector
// managed with std::push_heap / std::pop_heap rather than
// std::priority_queue: top() of a priority_queue is const, so draining one
// forces a copy of the Entry — and of its std::function, a heap allocation
// per event. pop_heap moves the entry to the back, where the callback is
// moved out for free.
//
// A *keyed timer* is a deadline for a uint32 key, with at most one pending
// per key: arm() inserts the key or moves it (decrease- or increase-key),
// disarm() cancels it in O(log n), and a fired key is removed before the
// owner's one handler runs with it. This is how a per-flow deadline that
// keeps moving — a fluid flow's completion, re-timed by every reallocation
// that changes its rate; its elephant promotion, cancelled when it finishes
// first; a TCP flow's retransmission timeout — stays one live entry rather
// than a trail of stale closures that are skipped when they fire. A re-arm
// allocates nothing. The timers live in an indexed binary min-heap (key ->
// heap position) that run_next() merges with the callback heap under the
// same (time, seq) order; a re-arm takes a fresh seq exactly as a new
// schedule() would, so replacing "schedule anew, skip the stale one" with
// arm() leaves the order of every live event unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace dard::flowsim {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using TimerHandler = std::function<void(std::uint32_t key)>;

  void schedule(Seconds at, Callback cb) {
    DCN_CHECK_MSG(at >= now_, "cannot schedule into the past");
    heap_.push_back(Entry{at, seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // Installs the handler every fired timer key is passed to; once per queue.
  void set_timer_handler(TimerHandler handler) {
    DCN_CHECK_MSG(!handler_, "timer handler already installed");
    handler_ = std::move(handler);
  }

  // Sets `key`'s deadline to `at`, arming it or moving its pending deadline.
  void arm(std::uint32_t key, Seconds at) {
    DCN_CHECK_MSG(handler_, "arming a timer with no handler installed");
    DCN_CHECK_MSG(at >= now_, "cannot arm a timer in the past");
    if (key >= pos_.size()) pos_.resize(key + 1, kUnarmed);
    if (pos_[key] == kUnarmed) {
      pos_[key] = static_cast<std::uint32_t>(timers_.size());
      timers_.push_back(Timer{at, 0, key});
    }
    const std::uint32_t p = pos_[key];
    timers_[p].time = at;
    timers_[p].seq = seq_++;
    sift_down(sift_up(p));
  }

  // Cancels `key`'s pending deadline; a no-op when it has none.
  void disarm(std::uint32_t key) {
    if (key < pos_.size() && pos_[key] != kUnarmed) remove(pos_[key]);
  }

  [[nodiscard]] bool armed(std::uint32_t key) const {
    return key < pos_.size() && pos_[key] != kUnarmed;
  }

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty() && timers_.empty(); }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + timers_.size();
  }

  // Runs the earliest event; returns false when none remain.
  bool run_next() {
    if (!timers_.empty() &&
        (heap_.empty() || earlier(timers_.front(), heap_.front()))) {
      const Timer t = timers_.front();
      // Removed before the handler runs: it may re-arm any key, this one
      // included.
      remove(0);
      now_ = t.time;
      handler_(t.key);
      return true;
    }
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.time;
    e.cb();
    return true;
  }

  // Runs events with time <= t, then advances the clock to t.
  void run_until(Seconds t) {
    while ((!heap_.empty() && heap_.front().time <= t) ||
           (!timers_.empty() && timers_.front().time <= t))
      run_next();
    now_ = std::max(now_, t);
  }

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Timer {
    Seconds time;
    std::uint64_t seq;
    std::uint32_t key;
  };
  // (time, seq) order, between callbacks and timers alike.
  template <class A, class B>
  static bool earlier(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  // Min-heap order: the max-heap comparator ranks the *later* event higher.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return earlier(b, a);
    }
  };

  static constexpr std::uint32_t kUnarmed =
      std::numeric_limits<std::uint32_t>::max();

  void place(std::uint32_t i, const Timer& t) {
    timers_[i] = t;
    pos_[t.key] = i;
  }
  // Moves the timer at `i` toward the root while it precedes its parent;
  // returns where it settles.
  std::uint32_t sift_up(std::uint32_t i) {
    const Timer t = timers_[i];
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!earlier(t, timers_[parent])) break;
      place(i, timers_[parent]);
      i = parent;
    }
    place(i, t);
    return i;
  }
  void sift_down(std::uint32_t i) {
    const Timer t = timers_[i];
    const auto n = static_cast<std::uint32_t>(timers_.size());
    for (;;) {
      std::uint32_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(timers_[child + 1], timers_[child]))
        ++child;
      if (!earlier(timers_[child], t)) break;
      place(i, timers_[child]);
      i = child;
    }
    place(i, t);
  }
  // Unarms the timer at heap position `i`: the last timer fills the hole
  // and sifts whichever way restores the order.
  void remove(std::uint32_t i) {
    pos_[timers_[i].key] = kUnarmed;
    const Timer last = timers_.back();
    timers_.pop_back();
    if (i == timers_.size()) return;
    timers_[i] = last;
    sift_down(sift_up(i));
  }

  std::vector<Entry> heap_;
  std::vector<Timer> timers_;        // min-heap on (time, seq)
  std::vector<std::uint32_t> pos_;   // key -> index in timers_, or kUnarmed
  TimerHandler handler_;
  Seconds now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace dard::flowsim
