#include "sim/event_domain.hpp"

#include <stdexcept>

namespace adx::sim {
namespace {

unsigned checked_shards(const machine_config& cfg, const domain_options& opt) {
  if (opt.shards == 0) throw std::invalid_argument("event_domain: shards must be > 0");
  return opt.shards < cfg.groups() ? opt.shards : cfg.groups();
}

std::vector<rng> make_streams(unsigned places, std::uint64_t seed) {
  std::vector<rng> s;
  s.reserve(places);
  for (unsigned p = 0; p < places; ++p) {
    s.emplace_back(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  }
  return s;
}

}  // namespace

event_domain::event_domain(const machine_config& cfg, const domain_options& opt)
    : places_(cfg.groups()),
      q_(checked_shards(cfg, opt), cfg.min_cross_group_latency(), opt.adaptive_lookahead,
         opt.max_widen),
      streams_(make_streams(places_, opt.seed)) {}

domain_stats event_domain::stats() const {
  domain_stats s;
  s.windows = q_.windows();
  s.cross_sends = q_.cross_sends();
  s.widened_windows = q_.widened_windows();
  s.peak_widen = q_.peak_widen();
  for (unsigned i = 0; i < q_.shards(); ++i) {
    s.slab_slots += q_.shard_queue(i).slots_acquired();
    s.callback_spills += q_.shard_queue(i).callback_spills();
  }
  return s;
}

std::unique_ptr<event_domain> make_event_domain(const machine_config& cfg,
                                                const domain_options& opt) {
  return std::make_unique<event_domain>(cfg, opt);
}

}  // namespace adx::sim
