// The telemetry wire protocol: length-prefixed binary frames.
//
//   frame := u32 payload_len (LE) | u8 msg_type | payload[payload_len]
//
// Payloads are flat little-endian encodings: integers fixed-width, doubles
// as IEEE-754 bit patterns (bit-exact round trip), strings as u32 length +
// bytes. Every frame is self-delimiting, so a reader can resynchronize a
// stream only at frame boundaries — which is all it ever needs: a producer
// writes whole frames, and a truncated tail (producer died mid-write) is
// detected as an incomplete frame, never misparsed as a different message.
//
// Decoding is strict: a payload shorter than its fields, longer than its
// fields (trailing garbage), larger than kMaxFrameBytes, or carrying an
// unknown type is rejected — the connection/file is then poisoned rather
// than guessed at. The protocol is versioned via hello_msg; the timeline
// refuses any version but kProtocolVersion.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace adx::telemetry {

inline constexpr std::uint32_t kProtocolVersion = 2;
/// Upper bound on a single frame's payload; larger headers are a protocol
/// error (a corrupt length would otherwise make the reader buffer garbage).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

enum class msg_type : std::uint8_t {
  hello = 1,        ///< first frame of a stream: identifies run + producer
  trace_event = 2,  ///< one obs::event (span / instant / counter)
  metrics = 3,      ///< cumulative obs::metrics snapshot (latest wins)
  adapt = 4,        ///< an adaptation decision landing (d_c + its v_i)
  progress = 5,     ///< sweep progress (done / total)
  result = 6,       ///< one completed unit of work (scenario, cell, ...)
  bye = 7,          ///< clean end of stream, carries producer-side drop count
};

/// First frame of every stream. `run_id` keys the run's timeline on the
/// server; concurrent producers should use distinct ids.
struct hello_msg {
  std::uint32_t version{kProtocolVersion};
  std::string run_id;
  std::string producer;

  bool operator==(const hello_msg&) const = default;
};

/// An obs::event flattened for the wire: the annotation/detail keys become
/// owned strings (empty = absent) because the in-memory event's `const
/// char*` keys are static-literal pointers that cannot cross a process
/// boundary.
struct trace_event_msg {
  std::string name;
  std::string cat;
  std::uint8_t ph{0};  ///< obs::phase value
  std::int64_t ts_ns{0};
  std::int64_t dur_ns{0};
  std::uint32_t pid{0};
  std::uint32_t tid{0};
  std::string a1_key;
  std::int64_t a1_value{0};
  std::string a2_key;
  std::int64_t a2_value{0};
  std::string detail_key;
  std::string detail;

  bool operator==(const trace_event_msg&) const = default;
};

/// One log_histogram's state: count, the 128-bit sum as two u64 halves,
/// exact min/max, and the non-zero buckets in ascending index order. The
/// bucket geometry is fixed, so the receiver rebuilds an identical histogram
/// and merged quantiles are exact. The decoder rejects bucket lists that
/// log_histogram::sparse_error() refuses.
struct hist_snapshot {
  std::string name;
  std::uint64_t count{0};
  std::uint64_t sum_lo{0};
  std::uint64_t sum_hi{0};
  std::uint64_t min{0};
  std::uint64_t max{0};
  obs::log_histogram::sparse_buckets buckets;

  bool operator==(const hist_snapshot&) const = default;
};

/// A cumulative metrics-registry snapshot. Snapshots are idempotent
/// summaries: the latest one per run wins (losing an intermediate snapshot
/// under backlog is safe, matching the snapshot-ring discipline).
struct metrics_msg {
  std::int64_t ts_ns{0};
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<hist_snapshot> histograms;

  bool operator==(const metrics_msg&) const = default;
};

/// An adaptation decision at the feedback point: policy `policy` observed
/// `sensor_value` (full vector in `sensors`) on `object` and applied
/// `decision`. Rendered on the merged timeline as an instant and counted on
/// the dashboard.
struct adapt_msg {
  std::int64_t ts_ns{0};
  std::string object;
  std::string policy;
  std::string decision;
  std::string sensors;
  std::int64_t sensor_value{0};

  bool operator==(const adapt_msg&) const = default;
};

struct progress_msg {
  std::uint64_t done{0};
  std::uint64_t total{0};
  std::string label;

  bool operator==(const progress_msg&) const = default;
};

struct result_msg {
  std::string label;
  std::uint8_t failed{0};
  std::string detail;

  bool operator==(const result_msg&) const = default;
};

struct bye_msg {
  std::uint64_t dropped{0};  ///< frames the producer dropped (ring full)

  bool operator==(const bye_msg&) const = default;
};

using message = std::variant<hello_msg, trace_event_msg, metrics_msg, adapt_msg,
                             progress_msg, result_msg, bye_msg>;

[[nodiscard]] msg_type type_of(const message& m);

/// Encodes one message as a complete frame (header + payload).
[[nodiscard]] std::string encode_frame(const message& m);

/// Decodes one complete frame payload. Strict: short payloads, trailing
/// bytes, unknown types and malformed strings all fail (err explains).
[[nodiscard]] bool decode_payload(std::uint8_t type, std::string_view payload,
                                  message& out, std::string* err = nullptr);

/// Incremental frame parser over a byte stream (socket reads, dump files).
/// feed() bytes in any chunking; next() yields decoded messages until the
/// buffered data runs dry (need_more) or the stream is poisoned (error —
/// every later next() keeps returning error).
class frame_reader {
 public:
  enum class status { ok, need_more, error };

  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void feed(std::string_view s) { buf_.append(s.data(), s.size()); }

  [[nodiscard]] status next(message& out);

  [[nodiscard]] const std::string& error_text() const { return error_; }
  /// Bytes buffered but not yet consumed by next(). A non-empty residue at
  /// EOF means the stream ended mid-frame (producer died mid-write).
  [[nodiscard]] std::size_t pending() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_{0};
  std::string error_;
  bool failed_{false};
};

// ------- conversions between wire and obs types -------

/// Flattens an in-memory obs::event (static-literal keys) for the wire.
[[nodiscard]] trace_event_msg to_wire(const obs::event& e);

/// Snapshots a whole metrics registry (counters, gauges, histograms with
/// full bucket state) at virtual time `ts_ns`.
[[nodiscard]] metrics_msg snapshot_metrics(const obs::metrics& m, std::int64_t ts_ns);

/// Reconstructs a histogram from its wire snapshot, bit-identical to the
/// sender's. Throws std::invalid_argument on buckets the decoder would have
/// rejected.
[[nodiscard]] obs::log_histogram restore_histogram(const hist_snapshot& h);

// ------- endpoints -------

/// A telemetry endpoint: "unix:<path>" (or a bare path containing '/') for
/// a Unix-domain socket, "tcp:<host>:<port>" for TCP loopback.
struct endpoint {
  enum class kind : std::uint8_t { unix_domain, tcp };
  kind k{kind::unix_domain};
  std::string path;  ///< unix_domain
  std::string host;  ///< tcp
  std::uint16_t port{0};
};

[[nodiscard]] std::optional<endpoint> parse_endpoint(std::string_view text,
                                                     std::string* err = nullptr);

}  // namespace adx::telemetry
