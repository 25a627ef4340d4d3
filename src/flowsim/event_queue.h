// Discrete-event queue: one-shot callbacks, keyed timers and posted tags.
//
// Both simulators are driven off this queue. Every entry takes a sequence
// number from one monotone counter when it is scheduled, (re)armed or
// posted, and entries run in (time, seq) order: events firing at identical
// times run in the order they were scheduled, so simulations are fully
// deterministic.
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
//
// A *post* is a plain (time, seq, uint32 tag) entry on a third heap, handed
// to the one post handler installed on the queue. It is the event of a
// caller whose state lives in its own table and needs only an index to
// find it — pktsim's packet arrivals, tagged by packet pool slot — so it
// captures nothing and allocates nothing once the heap has grown.
//
// A *reserved stamp* is a (time, seq) position in the order with no entry
// behind it: reserve() draws the seq a schedule() would have drawn, and
// passed() answers whether the queue has run past that position — exactly
// whether a no-op callback scheduled in its place would have fired:
//
//   inside a running event         stamp < that event's (time, seq)
//   after run_next() returns       stamp < the last fired (time, seq)
//   after run_until(t) returns     stamp < (t, the next seq to be drawn),
//                                  i.e. time <= t among stamps drawn so far
//
// An owner whose only effect at some time is on its own state (pktsim's
// link departures, which just shrink a queue) keeps reserved stamps in its
// own FIFO and settles the passed ones when it next reads that state,
// instead of queueing an event for each.
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
  using PostHandler = std::function<void(std::uint32_t tag)>;

  // A position in the queue's (time, seq) order.
  struct Stamp {
    Seconds time;
    std::uint64_t seq;
  };

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

  // Installs the handler every fired post's tag is passed to; once per queue.
  void set_post_handler(PostHandler handler) {
    DCN_CHECK_MSG(!post_handler_, "post handler already installed");
    post_handler_ = std::move(handler);
  }

  // Queues `tag` for the post handler at `at`.
  void post(Seconds at, std::uint32_t tag) {
    DCN_CHECK_MSG(post_handler_, "posting with no handler installed");
    DCN_CHECK_MSG(at >= now_, "cannot post into the past");
    posts_.push_back(Post{at, seq_++, tag});
    std::push_heap(posts_.begin(), posts_.end(), Later{});
  }

  // Draws the stamp a schedule(at, ...) here would have drawn, queueing
  // nothing.
  [[nodiscard]] Stamp reserve(Seconds at) {
    DCN_CHECK_MSG(at >= now_, "cannot reserve into the past");
    return Stamp{at, seq_++};
  }

  // True once the queue has run past `s` (see the header comment).
  [[nodiscard]] bool passed(const Stamp& s) const {
    return earlier(s, horizon_);
  }

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] bool empty() const {
    return heap_.empty() && timers_.empty() && posts_.empty();
  }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + timers_.size() + posts_.size();
  }

  // Runs the earliest event; returns false when none remain.
  bool run_next() {
    // The earlier of the callback and timer heads, then that against the
    // post head.
    const bool timer =
        !timers_.empty() &&
        (heap_.empty() || earlier(timers_.front(), heap_.front()));
    const bool post =
        !posts_.empty() &&
        (timer ? earlier(posts_.front(), timers_.front())
               : heap_.empty() || earlier(posts_.front(), heap_.front()));
    if (post) {
      std::pop_heap(posts_.begin(), posts_.end(), Later{});
      const Post p = posts_.back();
      posts_.pop_back();
      fire(p);
      post_handler_(p.tag);
      return true;
    }
    if (timer) {
      const Timer t = timers_.front();
      // Removed before the handler runs: it may re-arm any key, this one
      // included.
      remove(0);
      fire(t);
      handler_(t.key);
      return true;
    }
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    fire(e);
    e.cb();
    return true;
  }

  // Runs events with time <= t, then advances the clock to t.
  void run_until(Seconds t) {
    while ((!heap_.empty() && heap_.front().time <= t) ||
           (!timers_.empty() && timers_.front().time <= t) ||
           (!posts_.empty() && posts_.front().time <= t))
      run_next();
    now_ = std::max(now_, t);
    // Every stamp drawn so far at or before t would have fired by now.
    const Stamp through{t, seq_};
    if (earlier(horizon_, through)) horizon_ = through;
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
  struct Post {
    Seconds time;
    std::uint64_t seq;
    std::uint32_t tag;
  };
  // (time, seq) order, between every kind of entry and stamps alike.
  template <class A, class B>
  static bool earlier(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  // Min-heap order: the max-heap comparator ranks the *later* event higher.
  struct Later {
    template <class E>
    bool operator()(const E& a, const E& b) const {
      return earlier(b, a);
    }
  };

  // Advances the clock and the passed() horizon to the event about to run.
  template <class E>
  void fire(const E& e) {
    now_ = e.time;
    horizon_ = Stamp{e.time, e.seq};
  }

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
  std::vector<Post> posts_;
  TimerHandler handler_;
  PostHandler post_handler_;
  Seconds now_ = 0;
  std::uint64_t seq_ = 0;
  // Stamps before this have passed: the running or last fired event, or
  // run_until's (t, seq_) when that is later.
  Stamp horizon_{-std::numeric_limits<Seconds>::infinity(), 0};
};

}  // namespace dard::flowsim
