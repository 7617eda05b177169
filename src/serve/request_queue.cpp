#include "serve/request_queue.hpp"

#include <algorithm>

namespace xnfv::serve {

RequestQueue::RequestQueue(std::size_t depth) : depth_(std::max<std::size_t>(1, depth)) {
    classes_.resize(1);  // class 0 (the default model) always exists
}

void RequestQueue::ensure_class_locked(std::size_t model_class) {
    if (model_class >= classes_.size()) classes_.resize(model_class + 1);
}

void RequestQueue::configure_class(std::size_t model_class, ClassConfig config) {
    std::lock_guard lock(mutex_);
    ensure_class_locked(model_class);
    classes_[model_class].quota = config.quota;
    classes_[model_class].weight = std::max<std::size_t>(1, config.weight);
}

ServeError RequestQueue::try_push(Job job) {
    {
        std::lock_guard lock(mutex_);
        if (closed_) return ServeError::service_stopped;
        if (total_ >= depth_) return ServeError::queue_full;
        ensure_class_locked(job.model_class);
        ClassQueue& cls = classes_[job.model_class];
        if (cls.quota > 0 && cls.jobs.size() >= cls.quota)
            return ServeError::quota_exceeded;
        job.depth_at_enqueue = ++total_;
        if (!cls.in_round) {
            cls.in_round = true;
            active_.push_back(job.model_class);
        }
        cls.jobs.push_back(std::move(job));
    }
    not_empty_.notify_one();
    return ServeError::none;
}

Job RequestQueue::pop_locked() {
    // Deficit-weighted round robin with unit job cost: when a class reaches
    // the head of the active list with an exhausted deficit, it earns a new
    // quantum of `weight` pops.  An emptied class leaves the round (and
    // forfeits its remaining deficit — credit never accumulates while idle,
    // which is what bounds a returning class's burst).
    const std::size_t c = active_.front();
    ClassQueue& cls = classes_[c];
    if (cls.deficit == 0) cls.deficit = cls.weight;
    Job job = std::move(cls.jobs.front());
    cls.jobs.pop_front();
    --total_;
    --cls.deficit;
    if (cls.jobs.empty()) {
        cls.deficit = 0;
        cls.in_round = false;
        active_.pop_front();
    } else if (cls.deficit == 0) {
        active_.pop_front();
        active_.push_back(c);
    }
    return job;
}

std::vector<Job> RequestQueue::pop_batch(std::size_t max) {
    std::vector<Job> batch;
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return total_ > 0 || closed_; });
    const std::size_t n = std::min(total_, std::max<std::size_t>(1, max));
    batch.reserve(n);
    while (batch.size() < n) batch.push_back(pop_locked());
    return batch;
}

void RequestQueue::close() {
    {
        std::lock_guard lock(mutex_);
        closed_ = true;
    }
    not_empty_.notify_all();
}

bool RequestQueue::closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
}

std::size_t RequestQueue::size() const {
    std::lock_guard lock(mutex_);
    return total_;
}

std::size_t RequestQueue::class_size(std::size_t model_class) const {
    std::lock_guard lock(mutex_);
    if (model_class >= classes_.size()) return 0;
    return classes_[model_class].jobs.size();
}

}  // namespace xnfv::serve
