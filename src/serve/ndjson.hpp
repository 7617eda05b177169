// Minimal JSON for the newline-delimited request protocol of `xnfv_cli serve`.
//
// The service speaks one flat JSON object per line in each direction; this
// header provides just enough of RFC 8259 to parse those requests and render
// responses with round-trippable doubles — no dependency, no allocator
// tricks, no streaming.  Numbers are parsed as doubles; response doubles are
// printed with %.17g so the served bytes decode to the exact binary value
// the explainer produced (the determinism tests compare these strings).
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "serve/errors.hpp"
#include "serve/metrics.hpp"
#include "serve/request_queue.hpp"

namespace xnfv::serve {

/// Parsed JSON value (object keys keep first occurrence; duplicates ignored).
class JsonValue {
public:
    enum class Type : std::uint8_t { null, boolean, number, string, array, object };

    Type type = Type::null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(const std::string& key) const;

    /// Typed member accessors with defaults (for flat request objects).
    [[nodiscard]] std::string get_string(const std::string& key,
                                         const std::string& fallback) const;
    [[nodiscard]] double get_number(const std::string& key, double fallback) const;
    [[nodiscard]] bool has(const std::string& key) const { return find(key) != nullptr; }

    /// Member `key` as an integer of type T: `fallback` when absent, empty
    /// when present but not a finite whole number T can hold.  Every integer
    /// read from the wire goes through here: casting a double T cannot hold
    /// is undefined behaviour.
    template <std::integral T>
    [[nodiscard]] std::optional<T> get_integer(const std::string& key, T fallback) const {
        const JsonValue* v = find(key);
        if (v == nullptr) return fallback;
        // 2^digits is exact as a double and one past T's largest value.
        constexpr double end =
            2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
        constexpr double begin = std::is_signed_v<T> ? -end : 0.0;
        const double d = v->number;
        if (v->type != Type::number || !(d >= begin && d < end) || d != std::trunc(d))
            return std::nullopt;
        return static_cast<T>(d);
    }
};

/// The bad_request detail for member `key` when get_integer() refused it.
[[nodiscard]] std::string integer_error(const std::string& key);

/// Parses one complete JSON document; throws std::runtime_error with a
/// position-annotated message on malformed input or trailing garbage.
[[nodiscard]] JsonValue parse_json(const std::string& text);

/// Outcome of validating a request's `features` member.  On failure `error`
/// names the taxonomy entry (serve/errors.hpp) and `message` the detail;
/// `features` is then empty.
struct FeatureExtraction {
    std::vector<double> features;
    ServeError error = ServeError::none;
    std::string message;
};

/// Extracts and validates `request["features"]`: it must be an array of
/// exactly `expected_dim` numbers, all finite.  A missing/non-array member,
/// wrong dimensionality, or a non-number element is `bad_request`; a NaN or
/// +-Inf value is `bad_features` (reachable from the wire: strtod parses
/// `1e999` to Inf).  Never throws.
[[nodiscard]] FeatureExtraction extract_features(const JsonValue& request,
                                                 std::size_t expected_dim);

/// One decoded ND-JSON frame from the incremental wire path.  `error` is
/// `none` for a well-formed line (whose bytes are in `text`, newline and any
/// trailing CR stripped); otherwise it names what was wrong with the line
/// (`bad_request`) and `message` carries the detail — the frame is then a
/// poison pill the caller should answer with a structured error.
struct Frame {
    std::string text;
    ServeError error = ServeError::none;
    std::string message;
};

/// The request line cap of both serving transports (TCP and stdin).
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Incremental newline-delimited frame splitter of every serving transport:
/// a socket read() may deliver half a line, three lines, or a line split
/// anywhere — including mid-way through a multi-byte UTF-8 sequence (bytes
/// are buffered verbatim until the newline, so splits can never corrupt a
/// sequence) — and a stream read delivers a line in pieces when it is
/// longer than the read buffer.  Hardened per the serving wire contract:
///   * CRLF tolerance: one trailing '\r' before the newline is stripped;
///   * oversized lines: a line longer than `max_line` bytes yields exactly
///     one bad_request frame and the rest of that line is discarded up to
///     its newline (the connection survives, the request does not);
///   * embedded NUL bytes: rejected as bad_request (a NUL inside JSON text
///     is never valid and would truncate C-string handling downstream);
///   * blank lines (spaces and tabs only) are skipped.
/// Never throws; never allocates more than max_line + O(chunk) bytes.
class LineDecoder {
public:
    explicit LineDecoder(std::size_t max_line = kMaxLineBytes);

    /// Consumes `n` bytes from the wire and appends every completed frame
    /// to `frames`.  Returns the number of frames appended.
    std::size_t feed(const char* data, std::size_t n, std::vector<Frame>& frames);

    /// Bytes buffered waiting for a newline (a partial line at EOF is
    /// dropped by design: a peer that closes mid-line never completed the
    /// request).
    [[nodiscard]] std::size_t buffered() const noexcept { return line_.size(); }
    [[nodiscard]] std::size_t max_line() const noexcept { return max_line_; }

private:
    void complete_line(std::vector<Frame>& frames);

    std::size_t max_line_;
    std::string line_;
    bool skipping_ = false;  ///< discarding the tail of an oversized line
    bool has_nul_ = false;   ///< current line contains an embedded NUL
};

/// Renders one served response as a single flat JSON object (no newline).
/// This is THE wire format every transport writes, so a served explanation
/// is byte-identical on stdin and over TCP.
[[nodiscard]] std::string render_response(const ExplainResponse& response);

/// The error answer to request `id` (0 when the request has none): a
/// render_response line with `ok` false, `error_code` and `error`.
[[nodiscard]] std::string render_error(std::uint64_t id, ServeError code,
                                       const std::string& message);

/// Escapes a string for embedding inside JSON quotes ("\n" -> "\\n", ...).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Shortest round-trippable rendering of a double (%.17g; nan/inf -> null,
/// which JSON cannot represent).
[[nodiscard]] std::string json_number(double v);

/// Incremental writer for one flat response object:
///   JsonWriter w; w.field("id", 3.0); ... w.finish() -> {"id":3,...}
class JsonWriter {
public:
    void field(const std::string& key, const std::string& value);
    void field(const std::string& key, const char* value);
    void field(const std::string& key, double value);
    void field(const std::string& key, std::uint64_t value);
    void field(const std::string& key, bool value);
    void field_array(const std::string& key, const std::vector<double>& values);
    /// Inserts pre-rendered JSON (nested object/array) verbatim.
    void field_raw(const std::string& key, const std::string& json);

    [[nodiscard]] std::string finish() const { return "{" + body_ + "}"; }

private:
    void key_prefix(const std::string& key);
    std::string body_;
};

}  // namespace xnfv::serve
