#include "fabric/switch_state.h"

#include "fabric/wire.h"

namespace dard::fabric {

void StateQueryService::charge(Seconds now, std::size_t queries,
                               std::size_t replies) const {
  if (accountant_ == nullptr) return;
  accountant_->record(now, kDardQueryBytes, ControlCategory::DardQuery,
                      queries);
  accountant_->record(now, kDardReplyBytes, ControlCategory::DardReply,
                      replies);
}

void ControlPlaneModel::capture_stale(const LinkStateBoard& board) {
  const std::size_t n = board.topology().link_count();
  snapshot_.resize(n);
  for (std::size_t lv = 0; lv < n; ++lv) {
    const LinkId l{static_cast<LinkId::value_type>(lv)};
    snapshot_[lv] = {board.capacity(l), board.elephants(l)};
  }
  stale_active_ = true;
}

}  // namespace dard::fabric
