#include "serve/session.hpp"

#include <array>
#include <condition_variable>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>

#include "serve/explainers.hpp"
#include "serve/registry.hpp"

namespace xnfv::serve {

Session::Session(Context context) : context_(std::move(context)) {}

void Session::handle(const Frame& frame) {
    if (quit_read_) return;
    if (frame.error != ServeError::none) {
        answer(render_error(0, frame.error, frame.message));
        return;
    }
    JsonValue req;
    try {
        req = parse_json(frame.text);
    } catch (const std::exception& e) {
        answer(render_error(0, ServeError::bad_request, e.what()));
        return;
    }
    const auto op = req.get_string("op", "explain");
    if (op == "explain") {
        explain(req);
    } else if (op == "quit") {
        push_slot(Slot::Kind::quit);
        quit_read_ = true;
    } else if (op == "stats") {
        push_slot(Slot::Kind::stats);
    } else if (op == "stats_reset" || op == "load" || op == "swap" || op == "retire" ||
               op == "models") {
        // Applied when read, not as a barrier: requests already admitted keep
        // the model snapshot they pinned (the RCU contract) and land in the
        // new measurement window, which is what a phase boundary wants.
        answer(context_.admin(req));
    } else if (op == "use") {
        answer(use(req));
    } else {
        answer(render_error(0, ServeError::bad_request, "unknown op '" + op + "'"));
    }
}

std::string Session::use(const JsonValue& request) {
    // Later explains without a "model" field resolve to this name; "" (or no
    // "model") goes back to the service default.
    const auto name = request.get_string("model", "");
    if (!name.empty() && !context_.service.feature_dim(name))
        return render_error(0, ServeError::unknown_model, "unknown model '" + name + "'");
    default_model_ = name;
    JsonWriter w;
    w.field("ok", true);
    w.field("op", "use");
    w.field("model", name);
    return w.finish();
}

void Session::explain(const JsonValue& req) {
    // Integers arrive as doubles; a present value its field cannot hold (not
    // a number, a fraction, or out of range) refuses the request, naming the
    // first such field.  `row` is read only where it is used, below.
    const char* bad_number = nullptr;
    const auto integer = [&req, &bad_number](const char* key, auto fallback) {
        const auto value = req.get_integer(key, fallback);
        if (!value && bad_number == nullptr) bad_number = key;
        return value.value_or(fallback);
    };
    ExplainRequest er;
    er.id = integer("id", next_id_);
    ++next_id_;
    er.method = req.get_string("method", "");
    er.model = req.get_string("model", default_model_);
    er.seed = integer("seed", std::uint64_t{0});
    er.deadline_ms = integer("deadline_ms", std::int64_t{-1});
    // Opt-in interaction pairs; a count of 0 or less means off, not an error.
    if (const auto k = integer("interactions", std::int64_t{0}); k > 0)
        er.interactions = static_cast<std::size_t>(k);

    // The slot is taken before validation so the retry window covers every
    // outcome: a duplicate rid replays the recorded answer, explanation or
    // error alike.  (Retries should carry an explicit "id": the default-id
    // counter has already moved on by the time a duplicate is recognized.)
    const auto rid = integer("rid", std::uint64_t{0});
    const auto seq = push_slot(Slot::Kind::response);
    if (!admit_rid(rid, seq)) {
        context_.service.metrics().inc(&ServiceStats::net_retry_duplicates);
        return;
    }
    const auto fail = [this, seq](std::uint64_t id, ServeError code,
                                  const std::string& message) {
        fulfill(seq, render_error(id, code, message));
    };
    if (bad_number != nullptr) {
        fail(er.id, ServeError::bad_request, integer_error(bad_number));
        return;
    }

    // Feature arity is per model, so the model resolves first.
    const auto dim = context_.service.feature_dim(er.model);
    if (!dim) {
        fail(er.id, ServeError::unknown_model, "unknown model '" + er.model + "'");
        return;
    }
    if (!er.method.empty() && er.method != kAutoMethod && !known_explainer(er.method)) {
        fail(er.id, ServeError::bad_request,
             "unknown method '" + er.method + "' (expected " +
                 explainer_list_with_auto() + ")");
        return;
    }
    if (req.has("features")) {
        auto extracted = extract_features(req, *dim);
        if (extracted.error != ServeError::none) {
            fail(er.id, extracted.error, extracted.message);
            return;
        }
        er.features = std::move(extracted.features);
    } else if (req.has("row")) {
        const auto row = req.get_integer("row", std::size_t{0});
        if (!row) {
            fail(er.id, ServeError::bad_request, integer_error("row"));
            return;
        }
        if (!context_.rows || !context_.rows(*row, er.features)) {
            fail(er.id, ServeError::bad_request, "row out of range");
            return;
        }
    } else {
        fail(er.id, ServeError::bad_request, "explain needs \"row\" or \"features\"");
        return;
    }

    const std::uint64_t id = er.id;
    std::optional<ExplainResponse> hit;
    const auto rejected =
        context_.service.submit_async(std::move(er), context_.completion(seq), &hit);
    if (hit) {
        // A cache hit, answered at admission on this thread.
        fulfill(seq, render_response(*hit));
    } else if (rejected != ServeError::none) {
        fulfill(seq, render_error(id, rejected, std::string("rejected: ") + to_string(rejected)));
    }
}

std::uint64_t Session::push_slot(Slot::Kind kind) {
    slots_.push_back(Slot{kind, false, {}, 0});
    return base_seq_ + slots_.size() - 1;
}

void Session::answer(std::string line) {
    slots_.push_back(Slot{Slot::Kind::response, true, std::move(line), 0});
}

void Session::fulfill(std::uint64_t seq, std::string line) {
    if (seq < base_seq_) return;
    const auto index = seq - base_seq_;
    if (index >= slots_.size()) return;
    Slot& slot = slots_[index];
    slot.ready = true;
    slot.line = std::move(line);
    if (slot.rid == 0) return;
    // The original of its rid: record the line and answer every duplicate
    // that attached while it was pending.  Duplicates carry rid 0, so this
    // recursion is one level deep.
    const auto it = dedup_.find(slot.rid);
    if (it == dedup_.end() || it->second.done) return;
    it->second.done = true;
    it->second.line = slot.line;
    const std::vector<std::uint64_t> waiting = std::move(it->second.waiting);
    for (const auto dup_seq : waiting) fulfill(dup_seq, it->second.line);
}

bool Session::admit_rid(std::uint64_t rid, std::uint64_t seq) {
    if (rid == 0 || context_.dedup_window == 0) return true;
    const auto [it, inserted] = dedup_.try_emplace(rid);
    if (inserted) {
        dedup_order_.push_back(rid);
        // Evict the oldest completed records over capacity; a pending
        // original is never dropped (its duplicates must still attach).
        while (dedup_order_.size() > context_.dedup_window) {
            const auto oldest = dedup_.find(dedup_order_.front());
            if (oldest != dedup_.end()) {
                if (!oldest->second.done) break;
                dedup_.erase(oldest);
            }
            dedup_order_.pop_front();
        }
        slots_[seq - base_seq_].rid = rid;
        return true;
    }
    if (it->second.done)
        fulfill(seq, it->second.line);
    else
        it->second.waiting.push_back(seq);
    return false;
}

void Session::pump(std::string& out) {
    while (!slots_.empty()) {
        Slot& slot = slots_.front();
        switch (slot.kind) {
            case Slot::Kind::response:
                if (!slot.ready) return;
                out += slot.line;
                break;
            case Slot::Kind::stats:
                // At the head, every earlier answer is out, so the snapshot
                // covers them all.
                out += render_stats(context_.stats());
                break;
            case Slot::Kind::quit:
                slots_.pop_front();
                ++base_seq_;
                ended_ = true;
                return;
        }
        out += '\n';
        ++answered_;
        context_.service.metrics().inc(&ServiceStats::net_requests);
        slots_.pop_front();
        ++base_seq_;
    }
}

void serve_stream(std::istream& in, std::ostream& out, ExplanationService& service,
                  Session::RowLookup rows, std::size_t dedup_window) {
    // Misses come back from the dispatcher thread through this hand-off.
    // Shared, so no callback can outlive it.
    struct Inbox {
        std::mutex mutex;
        std::condition_variable_any arrived;
        std::vector<std::pair<std::uint64_t, std::string>> lines;
    };
    const auto inbox = std::make_shared<Inbox>();
    Session session({
        .service = service,
        .rows = std::move(rows),
        .stats = [&service] { return service.stats(); },
        .admin = [&service](const JsonValue& req) { return handle_model_admin(req, {&service}); },
        .completion = [inbox](std::uint64_t seq) -> Session::Completion {
            return [inbox, seq](ExplainResponse r) {
                auto line = render_response(r);
                {
                    const std::lock_guard<std::mutex> lock(inbox->mutex);
                    inbox->lines.emplace_back(seq, std::move(line));
                }
                inbox->arrived.notify_one();
            };
        },
        .dedup_window = dedup_window,
    });

    // The reading thread and the writer share the session under this mutex.
    // The reader blocks on input with it released, so the writer can answer
    // a miss the moment it reaches the head.
    std::mutex session_mutex;
    std::condition_variable head_moved;
    std::string answers;
    const auto pump = [&] {
        session.pump(answers);
        if (answers.empty()) return;
        out << answers;
        out.flush();
        answers.clear();
    };
    // Stopped and joined on every way out of this function.
    const std::jthread writer([&](std::stop_token stop) {
        std::vector<std::pair<std::uint64_t, std::string>> lines;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(inbox->mutex);
                if (!inbox->arrived.wait(lock, stop, [&] { return !inbox->lines.empty(); }))
                    return;
                lines.swap(inbox->lines);
            }
            {
                const std::lock_guard<std::mutex> lock(session_mutex);
                for (auto& [seq, line] : lines) session.fulfill(seq, std::move(line));
                pump();
            }
            lines.clear();
            head_moved.notify_all();
        }
    });

    LineDecoder decoder;
    std::vector<Frame> frames;
    std::array<char, 16 * 1024> chunk{};
    for (bool eof = false; !eof;) {
        {
            std::unique_lock<std::mutex> lock(session_mutex);
            if (session.quit_read()) break;
            head_moved.wait(lock, [&] { return session.unanswered() < kStreamWindow; });
        }
        // At most one line per read, so an interactive stream is answered
        // line by line; a longer line arrives in chunk-sized pieces.
        in.getline(chunk.data(), chunk.size());
        auto n = static_cast<std::size_t>(in.gcount());
        if (in.eof() || in.bad()) {
            eof = true;
        } else if (in.fail()) {
            in.clear();  // the chunk filled before the newline
        } else {
            chunk[n - 1] = '\n';  // getline stores a NUL in the newline's place
        }
        decoder.feed(chunk.data(), n, frames);
        if (eof) decoder.feed("\n", 1, frames);  // completes a last unterminated line
        const std::lock_guard<std::mutex> lock(session_mutex);
        for (const auto& frame : frames) session.handle(frame);
        frames.clear();
        pump();
    }
    std::unique_lock<std::mutex> lock(session_mutex);
    head_moved.wait(lock, [&] { return session.unanswered() == 0; });
}

}  // namespace xnfv::serve
