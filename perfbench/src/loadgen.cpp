#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "mlcore/rng.hpp"
#include "serve/ndjson.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace serve = xnfv::serve;

namespace {

constexpr std::size_t kBefore = SIZE_MAX - 1;   // keep as stats_before
constexpr std::size_t kDiscard = SIZE_MAX - 2;  // stats_reset acknowledgement

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Pins the calling thread to vCPU 0 while the generator runs (the other
/// vCPUs hold KeepAwake's spinners), and restores its mask afterwards.
class PinToCpu0 {
public:
    PinToCpu0() {
        ::sched_getaffinity(0, sizeof saved_, &saved_);
        cpu_set_t only;
        CPU_ZERO(&only);
        CPU_SET(0, &only);
        ::sched_setaffinity(0, sizeof only, &only);
    }
    ~PinToCpu0() { ::sched_setaffinity(0, sizeof saved_, &saved_); }
    PinToCpu0(const PinToCpu0&) = delete;
    PinToCpu0& operator=(const PinToCpu0&) = delete;

private:
    cpu_set_t saved_;
};

}  // namespace

TcpTransport::TcpTransport(std::uint16_t port, std::size_t connections)
    : conns_(connections) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (Conn& c : conns_) {
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (c.fd < 0) fail("socket");
        if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
            fail("connect");
        const int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
}

TcpTransport::~TcpTransport() {
    for (Conn& c : conns_)
        if (c.fd >= 0) ::close(c.fd);
}

void TcpTransport::write_all(Conn& c, std::string_view bytes) {
    while (!bytes.empty()) {
        const ssize_t n = ::send(c.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail("send");
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

void TcpTransport::send(std::size_t conn, std::size_t index, const std::string& line) {
    Conn& c = conns_[conn];
    c.pending.push_back(index);
    write_all(c, line);
}

void TcpTransport::poll(const OnResponse& on_response) {
    char buf[1 << 16];
    for (Conn& c : conns_) {
        for (;;) {
            const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
            if (n > 0) {
                c.buffer.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) throw std::runtime_error("server closed a connection");
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno != EINTR) fail("recv");
        }
        std::size_t start = 0;
        for (std::size_t nl; (nl = c.buffer.find('\n', start)) != std::string::npos;
             start = nl + 1) {
            if (c.pending.empty()) throw std::runtime_error("unrequested response line");
            const std::size_t index = c.pending.front();
            c.pending.pop_front();
            const std::string_view line(c.buffer.data() + start, nl - start);
            if (index == kBefore)
                stats_before_.assign(line);
            else if (index == kAdmin)
                admin_answers_.emplace_back(line);
            else if (index != kDiscard)
                on_response(index, line);
        }
        c.buffer.erase(0, start);
    }
}

void TcpTransport::window_begin() {
    conns_[0].pending.push_back(kBefore);
    conns_[0].pending.push_back(kDiscard);
    write_all(conns_[0], "{\"op\":\"stats\"}\n{\"op\":\"stats_reset\"}\n");
}

std::string TcpTransport::admin(const std::string& line) {
    conns_[0].pending.push_back(kAdmin);
    write_all(conns_[0], line + "\n");
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (admin_answers_.empty()) {
        poll([](std::size_t, std::string_view) {});
        if (Clock::now() > deadline) throw std::runtime_error("no answer to " + line);
    }
    std::string answer = std::move(admin_answers_.front());
    admin_answers_.pop_front();
    return answer;
}

void ServiceTransport::send(std::size_t, std::size_t index, const std::string& line) {
    // The TCP server's handling of an explain line (net/server.cpp).
    const auto req = serve::parse_json(line.substr(0, line.size() - 1));
    serve::ExplainRequest er;
    er.id = static_cast<std::uint64_t>(req.get_number("id", 0));
    er.method = req.get_string("method", "");
    er.model = req.get_string("model", "");
    er.seed = static_cast<std::uint64_t>(req.get_number("seed", 0));
    if (const double k = req.get_number("interactions", 0); k > 0)
        er.interactions = static_cast<std::size_t>(k);
    const auto dim = service_.feature_dim(er.model);
    if (!dim) throw std::runtime_error("unknown model " + er.model);
    auto extracted = serve::extract_features(req, *dim);
    if (extracted.error != serve::ServeError::none)
        throw std::runtime_error("bad features: " + extracted.message);
    er.features = std::move(extracted.features);
    serve::ExplainResponse rejected;
    rejected.id = er.id;
    rejected.error_code = service_.submit_async(
        std::move(er), [this, index](serve::ExplainResponse r) {
            auto text = serve::render_response(r);
            std::lock_guard lock(mutex_);
            done_.emplace_back(index, std::move(text));
        });
    if (rejected.error_code != serve::ServeError::none) {
        std::lock_guard lock(mutex_);
        done_.emplace_back(index, serve::render_response(rejected));
    }
}

void ServiceTransport::poll(const OnResponse& on_response) {
    {
        std::lock_guard lock(mutex_);
        taken_.swap(done_);
    }
    for (const auto& [index, line] : taken_) on_response(index, line);
    taken_.clear();
}

void ServiceTransport::window_begin() { service_.stats_reset(); }

LoadResult run_load(Transport& transport, RequestStream& stream, const WorkloadSpec& spec,
                    const LoadPlan& plan, std::uint64_t seed, const LoadHooks& hooks) {
    using Seconds = std::chrono::duration<double>;
    const auto ticks = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(Seconds(s));
    };
    // Make every request the run can send before the clock starts, so that
    // no send waits for the simulator.
    const auto most =
        static_cast<std::size_t>(spec.rate * 1.05 * (plan.warm_s + plan.window_s)) + 200;
    (void)stream.at(plan.first_index + most);

    const PinToCpu0 pinned;
    LoadResult res;
    res.first_index = plan.first_index;
    auto& ex = res.exchanges;
    ex.reserve(most);
    const auto start = Clock::now();
    res.window_begin = start + ticks(plan.warm_s);
    res.window_end = res.window_begin + ticks(plan.window_s);
    const auto give_up = res.window_end + std::chrono::seconds(20);

    ml::Rng arrivals(seed * 0x9e3779b97f4a7c15ULL + plan.first_index + 7);
    std::size_t outstanding = 0;
    bool begun = false, ended = false, sending = true;

    const auto send = [&](std::size_t conn, Clock::time_point due) {
        const std::size_t index = plan.first_index + ex.size();
        const std::string& line = stream.at(index).line;
        ex.push_back({});
        ex.back().due = due;
        ex.back().sent = Clock::now();
        transport.send(conn, index, line);
        ++outstanding;
        if (hooks.after_send) hooks.after_send(index, ex.back());
    };
    const auto begin_window = [&] {
        begun = true;
        transport.window_begin();
        if (hooks.at_window_begin) hooks.at_window_begin();
    };
    const Transport::OnResponse on_response = [&](std::size_t index, std::string_view line) {
        const auto now = Clock::now();
        Exchange& e = ex.at(index - plan.first_index);
        e.done = now;
        e.answered = true;
        --outstanding;
        if (hooks.on_response) hooks.on_response(index, line, now);
    };

    auto next_due = start;
    std::size_t next_conn = 0;
    for (;;) {
        const auto now = Clock::now();
        if (!begun && now >= res.window_begin) begin_window();
        if (!ended && now >= res.window_end) {
            ended = true;
            sending = false;
            if (hooks.at_window_end) hooks.at_window_end();
        }
        while (sending && next_due <= now) {
            if (next_due >= res.window_end) {
                sending = false;
                break;
            }
            if (!begun && next_due >= res.window_begin) begin_window();
            send(next_conn, next_due);
            next_conn = (next_conn + 1) % kConnections;
            next_due += ticks(arrivals.exponential(spec.rate));
        }
        transport.poll(on_response);
        if (ended && outstanding == 0) break;
        if (now > give_up) {
            res.drained = false;
            break;
        }
    }
    return res;
}

Tally tally(const LoadResult& res, const std::function<bool(std::size_t index)>& ok) {
    Tally t;
    for (std::size_t i = 0; i < res.exchanges.size(); ++i) {
        const Exchange& e = res.exchanges[i];
        const bool good = e.answered && ok(res.first_index + i);
        ++t.sent;
        if (!good) ++t.sent_failed;
        if (e.answered && e.done >= res.window_begin && e.done < res.window_end) {
            ++t.completed;
            if (good) ++t.ok_completed;
        }
        if (!res.measured(e)) continue;
        ++t.attempted;
        if (!good) {
            ++t.failed;
            continue;
        }
        t.latency_us.push_back(us_between(e.due, e.done));
        t.late_us.push_back(us_between(e.due, e.sent));
    }
    return t;
}

std::size_t send_all(Transport& transport, const std::vector<Request>& requests) {
    constexpr std::size_t kDepth = 16;  // 64 in flight keep the server busy, well under --queue
    std::vector<std::size_t> in_flight(kConnections, 0), conn_of(requests.size());
    std::size_t next = 0, answered = 0, ok = 0;
    const auto pump = [&] {
        for (std::size_t c = 0; c < kConnections; ++c)
            for (; in_flight[c] < kDepth && next < requests.size(); ++next) {
                conn_of[next] = c;
                ++in_flight[c];
                transport.send(c, next, requests[next].line);
            }
    };
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    pump();
    while (answered < requests.size()) {
        transport.poll([&](std::size_t index, std::string_view line) {
            ++answered;
            --in_flight[conn_of[index]];
            if (line.find("\"ok\":true") != std::string_view::npos) ++ok;
        });
        pump();
        if (Clock::now() > deadline) throw std::runtime_error("set-up requests unanswered");
    }
    return ok;
}

}  // namespace perfbench
