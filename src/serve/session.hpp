// One ND-JSON serving session: the request protocol of `xnfv_cli serve`,
// whatever transport carries it.
//
// A Session turns decoded frames (serve::LineDecoder) into answer lines.  It
// dispatches every op — explain, stats, stats_reset, the registry admin ops
// load/swap/retire/models, use and quit — decodes and validates the explain
// fields, and keeps the session defaults: the default-id counter (1, 2, ...)
// and the model that `use` selected.
//
// Answers leave in request order through an ordered slot pipeline: every
// frame takes the next slot, a slot is filled whenever its answer is ready
// (at once for errors, admin ops and cache hits; later, from the service's
// dispatcher, for a miss), and pump() moves out only the ready head.
// `stats` and `quit` are barrier slots resolved at the head, so `stats`
// reports every earlier answer and `quit` ends the session after them.  A
// window of request ids ("rid") makes retries idempotent: a duplicate of a
// pending request attaches to it, and a duplicate of a completed one replays
// its recorded line.
//
// What differs per transport comes in through Session::Context: how a miss's
// response travels back to the thread that owns the session, what `stats`
// reports, and which services admin ops and stats_reset reach.  The TCP
// server drives one Session per connection (net/connection.hpp) and
// serve_stream() drives one over a byte stream such as stdin, so both
// transports answer every op with the same bytes.
//
// A Session belongs to one thread: handle(), fulfill() and pump() run there.
// Only the callbacks Context::completion builds run elsewhere (on the
// service's dispatcher thread), and they must hand the line back to the
// owning thread, which then calls fulfill().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/ndjson.hpp"
#include "serve/service.hpp"

namespace xnfv::serve {

class Session {
public:
    /// Resolves `{"row":K}` to a feature vector; false when the row does not
    /// exist ("row out of range").
    using RowLookup = std::function<bool(std::size_t row, std::vector<double>& features)>;
    /// Delivers one miss's response, on the dispatcher thread.
    using Completion = std::function<void(ExplainResponse)>;

    struct Context {
        ExplanationService& service;
        /// Unset = every row request is out of range.
        RowLookup rows;
        /// The snapshot a `stats` frame renders.
        std::function<ServiceStats()> stats;
        /// Applies `stats_reset` or a load/swap/retire/models op and returns
        /// its answer line.
        std::function<std::string(const JsonValue&)> admin;
        /// Builds the callback that returns the miss in slot `seq`.
        std::function<Completion(std::uint64_t seq)> completion;
        /// Completed rids remembered for replay; 0 disables the window.
        std::size_t dedup_window = 0;
    };

    explicit Session(Context context);

    /// Answers one frame, or submits it and leaves its slot pending.  Frames
    /// after `quit` are ignored.
    void handle(const Frame& frame);

    /// Fills slot `seq` with its rendered line.  A slot already pumped is
    /// ignored.  A slot carrying a rid records its line in the window and
    /// fills every duplicate that attached while it was pending.
    void fulfill(std::uint64_t seq, std::string line);

    /// Appends every answer that has reached the head, in request order,
    /// each followed by a newline.
    void pump(std::string& out);

    /// A `quit` frame has been read; the transport should stop reading.
    [[nodiscard]] bool quit_read() const noexcept { return quit_read_; }
    /// `quit` reached the head: every earlier answer has been pumped.
    [[nodiscard]] bool ended() const noexcept { return ended_; }
    /// Slots not yet pumped.
    [[nodiscard]] std::size_t unanswered() const noexcept { return slots_.size(); }
    /// Frames answered so far (explains, errors, ops and `stats`; not `quit`).
    [[nodiscard]] std::uint64_t answered() const noexcept { return answered_; }

private:
    struct Slot {
        enum class Kind : std::uint8_t { response, stats, quit };
        Kind kind = Kind::response;
        bool ready = false;
        std::string line;  ///< rendered JSON, no trailing newline
        /// The rid this slot's answer is recorded under (0 = none).
        std::uint64_t rid = 0;
    };
    /// One remembered rid: the recorded line once done, or the duplicate
    /// slots waiting for the original while it is pending.
    struct DedupEntry {
        bool done = false;
        std::string line;
        std::vector<std::uint64_t> waiting;
    };

    void explain(const JsonValue& request);
    [[nodiscard]] std::string use(const JsonValue& request);
    /// Takes the next slot; returns its sequence number.
    std::uint64_t push_slot(Slot::Kind kind);
    /// Takes the next slot, already filled with `line`.
    void answer(std::string line);
    /// Admits slot `seq` under `rid`: true when it must be computed, false
    /// when it was replayed or attached to the pending original.
    bool admit_rid(std::uint64_t rid, std::uint64_t seq);

    Context context_;
    std::deque<Slot> slots_;
    std::uint64_t base_seq_ = 0;  ///< seq of slots_.front()
    std::uint64_t next_id_ = 1;   ///< default `id` of the next explain
    std::string default_model_;   ///< set by `use` ("" = the service default)
    std::uint64_t answered_ = 0;
    bool quit_read_ = false;
    bool ended_ = false;
    std::unordered_map<std::uint64_t, DedupEntry> dedup_;
    std::deque<std::uint64_t> dedup_order_;  ///< insertion order for eviction
};

/// Answers most stream requests may have unanswered at once: a producer
/// that writes faster than the service explains waits here instead of
/// overrunning the admission queue.
inline constexpr std::size_t kStreamWindow = 64;

/// Serves one ND-JSON byte stream with one Session against one service:
/// reads `in` through a LineDecoder until EOF or `quit` (a last line
/// without a newline is still a request), keeps at most kStreamWindow
/// answers outstanding, and writes each answer to `out` as soon as it
/// reaches the head.  Returns once every answer has been written; the
/// caller stops the service.  `stats` reports the service alone, with no
/// net keys.
void serve_stream(std::istream& in, std::ostream& out, ExplanationService& service,
                  Session::RowLookup rows, std::size_t dedup_window);

}  // namespace xnfv::serve
