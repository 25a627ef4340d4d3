// Runtime invariant auditor (DESIGN.md §16).
//
// Simulator state lives in two places that must agree: the substrate's own
// flow records (rates, paths, remaining bytes) and the LinkStateBoard the
// control plane queries. A bug that lets them drift — a leaked elephant
// registration, a flow transferring bytes it never had, a healthy-looking
// rate across a failed cable, an agent incarnation moving backwards — is
// exactly the kind that fault injection provokes and end-to-end asserts
// miss. The Auditor walks those invariants periodically on the EventQueue
// and once more at collect. Checks are strictly read-only, so an audited
// run produces bit-identical results to an unaudited one; when no Auditor
// is installed (the default outside tests/CI) the substrates never even
// reach their audit() walk — one null-pointer branch per run.
//
// Two failure modes: fail_fast (the default) aborts through DCN_CHECK at
// the first violation — tests and CI want a loud, immediate stop with the
// invariant named; collect mode records violations for inspection, which
// the auditor's own unit tests use to prove it fires.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace dard::fabric {

class DataPlane;

class Auditor {
 public:
  struct Violation {
    Seconds time = 0;
    std::string what;
  };

  // `period` is the interval between scheduled passes; `fail_fast` aborts
  // on the first violation instead of recording it.
  explicit Auditor(DataPlane& net, Seconds period = 0.25,
                   bool fail_fast = true);

  // Schedules the periodic pass on the substrate's event queue. The pass
  // self-reschedules every `period` seconds for as long as the run lasts.
  void start();

  // One full pass right now. The harness calls this at collect so the final
  // state is always audited even if the run ends between periodic passes.
  void check_now();

  // Substrates call this from audit() for each invariant they evaluate;
  // `ok == false` is a violation described by `what` (aborts in fail_fast
  // mode). Also counts total checks, so tests can assert coverage ran.
  void check(bool ok, const std::string& what);
  // As above, with the description built only on a violation, so a passing
  // check does no string work.
  template <class Describe>
    requires std::invocable<Describe&>
  void check(bool ok, Describe&& describe) {
    if (ok) {
      ++checks_run_;
      return;
    }
    check(false, describe());
  }

  // Incarnation monotonicity: agents report every (host, incarnation) bump.
  // A report below the last recorded value means a stale pre-crash closure
  // survived the incarnation guard — the bug the versioning exists to stop.
  void note_incarnation(NodeId host, std::uint64_t incarnation);

  [[nodiscard]] std::uint64_t passes() const { return passes_; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

 private:
  void schedule_tick();

  DataPlane& net_;
  Seconds period_;
  bool fail_fast_;
  bool started_ = false;
  std::uint64_t passes_ = 0;
  std::uint64_t checks_run_ = 0;
  std::vector<Violation> violations_;
  std::map<NodeId, std::uint64_t> incarnations_;
};

}  // namespace dard::fabric
