/**
 * @file
 * Bounded multi-producer multi-consumer work queue with backpressure and
 * shutdown semantics. The serve daemon queues admitted requests in one,
 * so that a fast producer blocks (instead of ballooning memory) when a
 * slow consumer falls behind.
 *
 * Shutdown model: close() stops further pushes but lets consumers drain
 * every item that was accepted before the close; pop() returns nullopt
 * only once the queue is both closed and empty.
 */
#ifndef DARWIN_UTIL_WORK_QUEUE_H
#define DARWIN_UTIL_WORK_QUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace darwin {

/** A bounded FIFO channel between pipeline stages. */
template <typename T>
class WorkQueue {
  public:
    /** @param capacity Maximum queued items; 0 is promoted to 1. */
    explicit WorkQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    WorkQueue(const WorkQueue&) = delete;
    WorkQueue& operator=(const WorkQueue&) = delete;

    /**
     * Enqueue an item, blocking while the queue is full (backpressure).
     * Returns false — without enqueueing — if the queue was closed
     * before space became available.
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        not_full_.wait(lock, [this] {
            return closed_ || items_.size() < capacity_;
        });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /**
     * Non-blocking push. On success the item is moved into the queue;
     * on failure (full or closed) `item` is left untouched.
     */
    bool
    try_push(T& item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        not_empty_.notify_one();
        return true;
    }

    /**
     * Dequeue an item, blocking while the queue is empty. Returns
     * nullopt once the queue is closed *and* fully drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return std::nullopt;
        std::optional<T> item(std::move(items_.front()));
        items_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return item;
    }

    /** Non-blocking pop; nullopt when nothing is immediately available. */
    std::optional<T>
    try_pop()
    {
        std::optional<T> item;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (items_.empty())
                return std::nullopt;
            item.emplace(std::move(items_.front()));
            items_.pop_front();
        }
        not_full_.notify_one();
        return item;
    }

    /**
     * Close the queue: pending pushes fail, future pushes are refused,
     * and consumers drain the remaining items before seeing nullopt.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    mutable std::mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<T> items_;
    const std::size_t capacity_;
    bool closed_ = false;
};

}  // namespace darwin

#endif  // DARWIN_UTIL_WORK_QUEUE_H
