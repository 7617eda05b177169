// Multiplexed ND-JSON load generator for the TCP front-end.
//
// One epoll loop drives every client connection, so a single test thread can
// hold 10k+ concurrent loopback connections against the (sharded) server —
// a thread-per-connection blocking Client cannot reach that scale.  Each
// connection plays a caller-provided script (a list of request lines) with a
// bounded pipelining window and records every response line verbatim, which
// is what lets the soak and equivalence suites byte-compare full
// per-connection response streams across shard counts.
//
// Reply accounting is line-for-line: every scripted line is expected to
// produce exactly one response line, except a trailing `{"op":"quit"}`
// (which produces none and makes the server close after flushing).  Scripts
// should therefore end with either a quit frame or, with `shutdown_writes`,
// a half-close — both make the server end the connection so run_load() can
// read to EOF instead of guessing when a stream is done.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace xnfv::net {

struct LoadgenConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Max request lines in flight per connection before the next send waits
    /// for a response (1 = strict request/response lock-step).
    std::size_t window = 1;
    /// After a connection's last scripted line is sent, shutdown(SHUT_WR) —
    /// exercises the server's peer-EOF close path instead of quit.
    bool shutdown_writes = false;
    /// Whole-run deadline; on expiry surviving connections are abandoned and
    /// LoadReport::timed_out is set.
    std::chrono::milliseconds timeout{60000};
    /// Record a per-response round-trip sample (staged-to-answered, FIFO
    /// matched) into ConnReport::latency_us.
    bool record_latency = false;

    // --- Safe client retries (all off by default; max_retries > 0 turns
    // --- the driver into retry mode).
    //
    // In retry mode every scripted line must be an explain request carrying
    // a nonzero "id" (and, for same-connection dedup, a matching "rid");
    // responses are matched by id instead of FIFO order, an unanswered line
    // is re-sent with the same rid after `response_timeout` (the server's
    // per-connection dedup window answers replays from the completed-
    // response record instead of recomputing), and a dead connection is
    // re-established with exponential backoff and its unanswered lines
    // re-sent.  A connection completes when every scripted line has been
    // answered — the driver closes it actively, so scripts must NOT end
    // with a quit frame and `shutdown_writes` is ignored.
    /// Re-sends per request / reconnects per connection before giving up.
    std::size_t max_retries = 0;
    /// Unanswered-for-this-long lines are re-sent (0 = only reconnects
    /// re-send; response loss without connection death then waits forever).
    std::chrono::milliseconds response_timeout{0};
    /// Bound on each (re)connect handshake; 0 = kernel default.
    std::chrono::milliseconds connect_timeout{0};
    /// Backoff for attempt k is `backoff_base * 2^(k-1)` plus a
    /// deterministic jitter in [0, backoff_base] derived from
    /// (retry_seed, connection, rid, attempt) — no wall-clock randomness.
    std::chrono::milliseconds backoff_base{10};
    std::uint64_t retry_seed = 1;

    [[nodiscard]] bool retries_enabled() const noexcept { return max_retries > 0; }
};

/// Everything one connection saw, in arrival order.
struct ConnReport {
    /// Complete response lines ('\n' stripped), exactly as received.
    std::vector<std::string> lines;
    std::size_t sent_lines = 0;   ///< scripted lines actually written
    bool connect_failed = false;  ///< never established
    bool io_error = false;        ///< reset / write-after-close mid-stream
    bool eof = false;             ///< server closed the stream cleanly
    /// Leftover bytes after the last newline (non-empty = truncated line).
    std::string partial;
    /// Round-trip micros per response line (when record_latency is set).
    std::vector<double> latency_us;
    // Retry-mode accounting (zero outside retry mode).
    std::size_t retries = 0;     ///< lines re-sent after a response timeout
    std::size_t reconnects = 0;  ///< connection re-establishments attempted
    std::size_t duplicates = 0;  ///< extra responses for an already-answered id
};

struct LoadReport {
    std::vector<ConnReport> conns;  ///< index-aligned with the scripts
    bool timed_out = false;
};

/// One explain request for script building.  Exactly one of `row` (>= 0) or
/// `features` (non-empty) supplies the instance; optional fields are omitted
/// from the rendered line when left at their defaults, so a spec without a
/// model renders byte-identically to the pre-registry request lines.
struct RequestSpec {
    std::uint64_t id = 0;
    /// Idempotency key for safe retries: a nonzero rid enters the server's
    /// per-connection dedup window, so a re-sent request is answered from
    /// the completed-response record instead of recomputed.  0 omits the
    /// field (byte-identical to pre-rid request lines).
    std::uint64_t rid = 0;
    long row = -1;
    std::vector<double> features;
    std::string method;
    /// Registry model name for mixed-tenant workloads ("" = server default).
    std::string model;
    std::uint64_t seed = 0;
    std::int64_t deadline_ms = -1;
    /// > 0 requests the top-k interaction pairs next to the attributions;
    /// 0 omits the field (byte-identical to pre-interaction request lines).
    std::size_t interactions = 0;
};

/// Renders one `{"op":"explain",...}` request line (no trailing newline) —
/// the single place tests, benches, and the CLI netprobe build request JSON.
[[nodiscard]] std::string render_request_line(const RequestSpec& spec);

/// Plays `scripts[i]` on connection i (lines need not be '\n'-terminated;
/// one is added).  Blocks until every connection reached EOF, errored, or
/// the deadline expired.
[[nodiscard]] LoadReport run_load(const LoadgenConfig& config,
                                  const std::vector<std::vector<std::string>>& scripts);

}  // namespace xnfv::net
