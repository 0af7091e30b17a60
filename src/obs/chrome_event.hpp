// The one Chrome trace-event writer, shared by obs::tracer::chrome_json()
// and telemetry::timeline::chrome_json() (whose events lead their args with
// "run"). It writes
//
//   {"name":..,"cat":..,"ph":..,"ts":..[,"dur":..],"pid":..,"tid":..[,"s":"t"][,"args":{..}]}
//
// with "dur" only on complete spans, the thread scope only on instants, and
// "args" only once an arg is added. ts and dur are microseconds of virtual
// time with nanosecond resolution.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/event.hpp"
#include "obs/json.hpp"

namespace adx::obs {

/// Virtual nanoseconds as trace microseconds ("%.3f").
[[nodiscard]] inline std::string chrome_us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

/// Construct to write the fixed fields, add args, then end().
class chrome_event_writer {
 public:
  chrome_event_writer(std::ostream& os, std::string_view name, std::string_view cat,
                      phase ph, std::int64_t ts_ns, std::int64_t dur_ns, std::uint32_t pid,
                      std::uint32_t tid)
      : os_(os) {
    os_ << "{\"name\":" << json_str(name) << ",\"cat\":" << json_str(cat) << ",\"ph\":\""
        << to_chrome_phase(ph) << "\",\"ts\":" << chrome_us(ts_ns);
    if (ph == phase::complete) os_ << ",\"dur\":" << chrome_us(dur_ns);
    os_ << ",\"pid\":" << pid << ",\"tid\":" << tid;
    if (ph == phase::instant) os_ << ",\"s\":\"t\"";  // thread-scoped instant
  }

  chrome_event_writer& arg(std::string_view key, std::int64_t value) {
    open_arg(key) << value;
    return *this;
  }
  /// An arg whose value is a JSON string.
  chrome_event_writer& str_arg(std::string_view key, std::string_view value) {
    open_arg(key) << json_str(value);
    return *this;
  }
  /// Closes the args (if any) and the event.
  void end() { os_ << (args_open_ ? "}}" : "}"); }

 private:
  std::ostream& open_arg(std::string_view key) {
    os_ << (args_open_ ? "," : ",\"args\":{") << json_str(key) << ':';
    args_open_ = true;
    return os_;
  }

  std::ostream& os_;
  bool args_open_{false};
};

}  // namespace adx::obs
