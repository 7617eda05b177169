// One accepted TCP connection of the explanation server.
//
// A Connection owns the fd, the incremental frame decoder, the outgoing byte
// buffer, and the connection's serve::Session (serve/session.hpp) — the
// ND-JSON protocol itself: op dispatch, explain decoding, the ordered slot
// pipeline that keeps answers in request order, and the rid retry window.
// The same Session type serves stdin, so both transports answer alike.
//
// All methods are event-loop-thread-only; completions from the service's
// dispatcher thread are marshalled onto the loop by the server before they
// touch a Connection.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/chaos.hpp"
#include "serve/ndjson.hpp"
#include "serve/session.hpp"

namespace xnfv::net {

/// Outcome of a non-blocking read/write pass.
enum class IoStatus : std::uint8_t {
    ok,           ///< made progress; buffer state updated
    would_block,  ///< kernel buffer empty/full; wait for the next event
    peer_closed,  ///< orderly FIN from the peer
    error,        ///< hard socket error; connection must be dropped
};

class Connection {
public:
    Connection(std::uint64_t id, int fd, serve::Session::Context context);
    ~Connection();

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] int fd() const noexcept { return fd_; }

    /// Reads until EAGAIN, feeding every chunk through the frame decoder.
    /// Completed frames are appended to `frames`; byte counters and
    /// last_activity are updated.
    IoStatus read_some(std::vector<serve::Frame>& frames);

    /// Appends one ready-to-send line (newline added here) to the output
    /// buffer.  Does not write to the socket — the server flushes.
    void queue_output(const std::string& line);

    /// Moves every answer at the head of the session into the output buffer;
    /// once `quit` has reached the head, the connection closes after the
    /// flush.
    void pump();

    /// Writes buffered output until done or EAGAIN.
    IoStatus flush();

    [[nodiscard]] std::size_t output_bytes() const noexcept {
        return outbuf_.size() - out_off_;
    }
    [[nodiscard]] bool output_empty() const noexcept {
        return out_off_ == outbuf_.size();
    }

    void close() noexcept;
    [[nodiscard]] bool closed() const noexcept { return fd_ < 0; }

    // --- server-driven state -------------------------------------------
    serve::Session session;
    serve::LineDecoder decoder;
    std::chrono::steady_clock::time_point last_activity{};
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    bool close_after_flush = false;    ///< drop once the outbuf drains
    bool peer_eof = false;             ///< peer half-closed; finish writes, then drop
    bool lingering = false;            ///< drain FIN sent; discard input until peer EOF
    std::uint32_t interest = 0;        ///< epoll mask currently registered

    /// Socket chaos seam: when set, read_some/flush poll the injector with
    /// this connection's own counters (deterministic per-stream schedule).
    NetFaultInjector* chaos = nullptr;
    NetFaultCounters fault_counters;

private:
    std::uint64_t id_;
    int fd_;
    std::string outbuf_;
    std::size_t out_off_ = 0;
};

}  // namespace xnfv::net
