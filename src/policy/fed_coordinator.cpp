#include "policy/fed_coordinator.hpp"

#include <utility>

namespace adx::policy {

void fed_coordinator::attach(unsigned group, async_runtime& art) {
  member m;
  m.group = group;
  m.art = &art;
  m.locks.resize(art.coordinated_locks());
  for (std::size_t i = 0; i < m.locks.size(); ++i) {
    m.locks[i].last_acquisitions = art.coordinated_acquisitions(i);
  }
  members_.push_back(std::move(m));
  const std::size_t idx = members_.size() - 1;
  art.set_tick_observer([this, idx](std::uint64_t) { on_tick(idx); });
}

void fed_coordinator::on_tick(std::size_t member_idx) {
  // Runs inside the member daemon's tick, i.e. on the member group's shard:
  // reading its own coordinated locks' counters is place-local.
  member& m = members_[member_idx];
  std::vector<std::uint64_t> acq(m.art->coordinated_locks());
  for (std::size_t i = 0; i < acq.size(); ++i) {
    acq[i] = m.art->coordinated_acquisitions(i);
  }
  if (m.group == 0) {
    // The hub's own member: its shard *is* the hub shard, so the report can
    // be applied in place. Routing it through post(0, 0, ...) would also be
    // correct (and identically ordered), but would charge a needless L.
    on_report(member_idx, std::move(acq));
    return;
  }
  fed_->post(m.group, 0, [this, member_idx, a = std::move(acq)]() mutable {
    on_report(member_idx, std::move(a));
  });
}

void fed_coordinator::on_report(std::size_t member_idx,
                                std::vector<std::uint64_t> acquisitions) {
  // Runs on the hub shard (group 0); members_[*].locks is only touched here.
  member& m = members_[member_idx];
  ++reports_;
  for (std::size_t i = 0; i < acquisitions.size() && i < m.locks.size(); ++i) {
    lock_track& t = m.locks[i];
    if (acquisitions[i] == t.last_acquisitions) {
      ++t.idle_streak;
    } else {
      t.idle_streak = 0;
      t.demoted = false;
    }
    t.last_acquisitions = acquisitions[i];
    if (t.demoted || t.idle_streak < kIdleTicks) continue;
    t.demoted = true;
    ++demotions_;
    async_runtime* art = m.art;
    if (m.group == 0) {
      art->apply_external_demotion(i, kIdlePolicy);
    } else {
      fed_->post(0, m.group, [art, i] { art->apply_external_demotion(i, kIdlePolicy); });
    }
  }
}

}  // namespace adx::policy
