#include "locks/factory.hpp"

#include "cli/parse_error.hpp"

namespace adx::locks {

const char* to_string(lock_kind k) {
  switch (k) {
    case lock_kind::atomior: return "atomior";
    case lock_kind::spin: return "spin";
    case lock_kind::backoff: return "spin-with-backoff";
    case lock_kind::blocking: return "blocking";
    case lock_kind::combined: return "combined";
    case lock_kind::advisory: return "advisory";
    case lock_kind::ticket: return "ticket";
    case lock_kind::mcs: return "mcs";
    case lock_kind::reconfigurable: return "reconfigurable";
    case lock_kind::adaptive: return "adaptive";
  }
  return "?";
}

std::span<const lock_kind> all_lock_kinds() {
  static constexpr lock_kind kinds[] = {
      lock_kind::atomior,  lock_kind::spin,   lock_kind::backoff,
      lock_kind::blocking, lock_kind::combined, lock_kind::advisory,
      lock_kind::ticket,   lock_kind::mcs,    lock_kind::reconfigurable,
      lock_kind::adaptive,
  };
  return kinds;
}

lock_kind parse_lock_kind(std::string_view name) {
  for (auto k : all_lock_kinds()) {
    if (name == to_string(k)) return k;
  }
  throw cli::unknown_value("lock kind", name, all_lock_kinds(),
                           [](auto k) { return to_string(k); });
}

}  // namespace adx::locks
