/**
 * @file
 * BoundedStream: a fixed-capacity SPSC channel that spills to disk.
 *
 * The in-memory window is a WorkQueue. When the window fills while the
 * consumer lags, the overflow is appended to an unlinked temp file
 * (SpillFile) and the producer keeps going, never blocking. FIFO order
 * is preserved by a strict regime: once spilling starts, *every* push
 * goes to the spill until the consumer has drained both the in-memory
 * window and the spilled backlog, at which point the stream flips back
 * to in-memory operation and the spill file is recycled.
 *
 * Heap accounting: the fixed window plus the spill staging buffers are
 * charged against the fault heap budget once, at construction — the
 * stream's residency never grows past that, no matter how many records
 * flow through. Spilled bytes are bookkept (spilled_items()) but not
 * charged; disk is the escape valve.
 *
 * Strictly single-producer / single-consumer: a streaming pipeline run
 * seeds on a producer thread and filters on the consumer side. close()
 * follows WorkQueue semantics (consumer drains, then sees nullopt).
 */
#ifndef DARWIN_WGA_BOUNDED_STREAM_H
#define DARWIN_WGA_BOUNDED_STREAM_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "fault/cancel.h"
#include "util/work_queue.h"
#include "wga/spill.h"

namespace darwin::wga {

template <class T>
class BoundedStream {
    static_assert(std::is_trivially_copyable_v<T>,
                  "spilled records must be memcpy-safe");

  public:
    /**
     * @param capacity      In-memory window (records).
     * @param spill_dir     Spill directory ("" = system temp dir).
     * @param staging       Spill write/read batch (records); bounds the
     *                      two staging buffers.
     */
    explicit BoundedStream(std::size_t capacity, std::string spill_dir = "",
                           std::size_t staging = 1024)
        : queue_(capacity), staging_(staging == 0 ? 1 : staging),
          spill_dir_(std::move(spill_dir)),
          resident_bytes_((queue_.capacity() + 2 * staging_) * sizeof(T))
    {
        // Fixed residency, charged once: the window plus both staging
        // buffers. Everything past this spills to disk uncharged.
        fault::charge_heap_bytes(resident_bytes_);
    }

    /** Fixed in-memory footprint of this stream (bytes). */
    std::size_t resident_bytes() const { return resident_bytes_; }

    /** Producer side; never blocks. False once the stream is closed. */
    bool
    push(const T& item)
    {
        ++pushed_;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (closed_)
                return false;
            if (!spilling_) {
                T copy = item;
                if (queue_.try_push(copy)) {
                    lock.unlock();
                    wake_.notify_one();
                    return true;
                }
                spilling_ = true;
                ++spill_episodes_;
            }
            write_buf_.push_back(item);
            ++spilled_;
            ++spill_pending_;
            if (write_buf_.size() >= staging_)
                flush_write_buf();
        }
        wake_.notify_one();
        return true;
    }

    /** Consumer side; nullopt once closed and fully drained. */
    std::optional<T>
    pop()
    {
        while (true) {
            if (auto item = queue_.try_pop())
                return item;
            std::unique_lock<std::mutex> lock(mutex_);
            if (spill_pending_ > 0)
                return pop_spilled_locked();
            if (closed_ && queue_.size() == 0)
                return std::nullopt;
            wake_.wait(lock, [this] {
                return closed_ || spill_pending_ > 0 || queue_.size() > 0;
            });
        }
    }

    /** Producer is done; consumer drains the backlog then sees nullopt. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        queue_.close();
        wake_.notify_all();
    }

    std::uint64_t pushed() const { return pushed_; }
    std::uint64_t spilled_items() const { return spilled_; }
    std::uint64_t spill_episodes() const { return spill_episodes_; }

  private:
    void
    flush_write_buf()
    {
        if (write_buf_.empty())
            return;
        if (!file_)
            file_ = std::make_unique<SpillFile>(spill_dir_);
        file_->append(write_buf_.data(), write_buf_.size() * sizeof(T));
        write_buf_.clear();
    }

    std::optional<T>
    pop_spilled_locked()
    {
        if (read_pos_ >= read_buf_.size()) {
            // Refill: file records precede anything still staged in the
            // write buffer (appends happen in push order).
            const std::uint64_t file_records = file_ ? file_->size() / sizeof(T)
                                                     : 0;
            if (file_read_ < file_records) {
                const std::uint64_t n = std::min<std::uint64_t>(
                    staging_, file_records - file_read_);
                read_buf_.resize(static_cast<std::size_t>(n));
                file_->read_at(file_read_ * sizeof(T), read_buf_.data(),
                               static_cast<std::size_t>(n) * sizeof(T));
                file_read_ += n;
            } else {
                read_buf_ = std::move(write_buf_);
                write_buf_ = {};
            }
            read_pos_ = 0;
        }
        T item = read_buf_[read_pos_++];
        --spill_pending_;
        if (spill_pending_ == 0) {
            // Backlog drained: recycle the file and return to in-memory
            // operation.
            spilling_ = false;
            read_buf_.clear();
            read_pos_ = 0;
            file_read_ = 0;
            if (file_)
                file_->reset();
        }
        return item;
    }

    WorkQueue<T> queue_;
    std::size_t staging_;
    std::string spill_dir_;
    std::size_t resident_bytes_ = 0;

    std::mutex mutex_;
    std::condition_variable wake_;
    bool closed_ = false;
    bool spilling_ = false;
    std::vector<T> write_buf_;
    std::vector<T> read_buf_;
    std::size_t read_pos_ = 0;
    std::uint64_t file_read_ = 0;
    std::unique_ptr<SpillFile> file_;
    std::uint64_t spill_pending_ = 0;

    std::uint64_t pushed_ = 0;
    std::uint64_t spilled_ = 0;
    std::uint64_t spill_episodes_ = 0;
};

}  // namespace darwin::wga

#endif  // DARWIN_WGA_BOUNDED_STREAM_H
