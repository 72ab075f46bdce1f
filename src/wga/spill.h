/**
 * @file
 * Disk spill primitives for bounded-memory stage dataflow.
 *
 * SpillFile is an anonymous (created-then-unlinked) temp file with
 * append/pread access — the overflow valve BoundedStream and
 * SortingSpillBuffer divert to when their fixed in-memory windows fill.
 * Spilled bytes are deliberately *not* charged against the
 * fault::CancelToken heap budget: the whole point of spilling is that
 * overflow lives on disk, so only the fixed buffers count toward the
 * budget.
 *
 * SortingSpillBuffer accumulates records of a total order with O(chunk)
 * memory: full chunks are sorted and spilled, and drain_sorted() k-way
 * merges the chunks (plus the in-memory tail) back in order. The
 * streaming pipeline uses it to restore the canonical candidate order
 * (CandidateOrder) without materializing every candidate in RAM.
 */
#ifndef DARWIN_WGA_SPILL_H
#define DARWIN_WGA_SPILL_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace darwin::wga {

/** An unlinked temp file with append + positional-read access. */
class SpillFile {
  public:
    /** Create under `dir` (empty = the system temp directory). The
     *  file is unlinked immediately, so it vanishes on close/crash. */
    explicit SpillFile(const std::string& dir = "");
    ~SpillFile();

    SpillFile(const SpillFile&) = delete;
    SpillFile& operator=(const SpillFile&) = delete;

    /** Append `bytes` at the current end; fatal on I/O failure. */
    void append(const void* data, std::size_t bytes);

    /** Read exactly `bytes` at `offset`; fatal on short read. */
    void read_at(std::uint64_t offset, void* out, std::size_t bytes) const;

    /** Bytes appended so far. */
    std::uint64_t size() const { return size_; }

    /** Logical reset: subsequent appends start at offset 0 again (the
     *  old contents are dead; disk blocks are released). */
    void reset();

  private:
    int fd_ = -1;
    std::uint64_t size_ = 0;
};

/**
 * Bounded-memory accumulator of sortable records. Push in any order;
 * drain strictly in `Less` order. At most `chunk_capacity` records
 * (plus per-chunk merge read buffers during the drain) are resident.
 */
template <class T, class Less>
class SortingSpillBuffer {
    static_assert(std::is_trivially_copyable_v<T>,
                  "spilled records must be memcpy-safe");

  public:
    explicit SortingSpillBuffer(std::size_t chunk_capacity, Less less = {},
                                std::string spill_dir = "")
        : chunk_capacity_(chunk_capacity == 0 ? 1 : chunk_capacity),
          less_(less), spill_dir_(std::move(spill_dir))
    {
        pending_.reserve(chunk_capacity_);
    }

    void
    push(const T& item)
    {
        if (pending_.size() >= chunk_capacity_)
            spill_chunk();
        pending_.push_back(item);
        ++total_;
    }

    std::size_t size() const { return total_; }
    std::size_t chunks_spilled() const { return chunks_.size(); }
    std::uint64_t spilled_bytes() const { return spilled_bytes_; }

    /**
     * Pull cursor over the records in `Less` order (ties resolve by
     * chunk order, so the merge is deterministic). One k-way merge over
     * the spilled chunks plus the in-memory tail; per-cursor read
     * windows keep drain residency at O(chunk_capacity). Exactly one
     * Drain per fill; the buffer resets when the cursor is exhausted.
     */
    class Drain {
      public:
        /** Next record in sort order; nullopt once exhausted (at which
         *  point the owning buffer has been reset for reuse). */
        std::optional<T>
        next()
        {
            if (heap_.empty()) {
                if (owner_) {
                    owner_->clear();
                    owner_ = nullptr;
                }
                return std::nullopt;
            }
            std::pop_heap(heap_.begin(), heap_.end(), greater_);
            const Entry top = heap_.back();
            heap_.pop_back();
            Cursor& cursor = cursors_[top.cursor];
            if (refill(cursor)) {
                heap_.push_back(
                    Entry{cursor.buffer[cursor.buffer_pos++], top.cursor});
                std::push_heap(heap_.begin(), heap_.end(), greater_);
            }
            return top.item;
        }

      private:
        friend class SortingSpillBuffer;

        struct Cursor {
            std::uint64_t next = 0;   ///< records consumed from the chunk
            std::uint64_t count = 0;  ///< records in the chunk
            std::uint64_t base = 0;   ///< file offset of the chunk
            std::vector<T> buffer;    ///< read-ahead window
            std::size_t buffer_pos = 0;
        };

        struct Entry {
            T item;
            std::size_t cursor;
        };

        /** Min-heap order: cursor index breaks Less ties. */
        struct EntryGreater {
            Less less;
            bool
            operator()(const Entry& a, const Entry& b) const
            {
                if (less(a.item, b.item))
                    return false;
                if (less(b.item, a.item))
                    return true;
                return a.cursor > b.cursor;
            }
        };

        explicit Drain(SortingSpillBuffer* owner)
            : owner_(owner), greater_{owner->less_}
        {
            std::sort(owner->pending_.begin(), owner->pending_.end(),
                      owner->less_);
            cursors_.resize(owner->chunks_.size() + 1);
            for (std::size_t c = 0; c < owner->chunks_.size(); ++c) {
                cursors_[c].base = owner->chunks_[c].offset;
                cursors_[c].count = owner->chunks_[c].count;
            }
            cursors_.back().count = owner->pending_.size();
            cursors_.back().buffer = std::move(owner->pending_);
            // The tail cursor's records are already resident: mark them
            // consumed-from-"disk" so refill() never tries to read the
            // in-memory tail out of the spill file.
            cursors_.back().next = cursors_.back().count;
            owner->pending_ = {};
            read_window_ = std::max<std::size_t>(
                1, owner->chunk_capacity_ / (cursors_.size() + 1));
            heap_.reserve(cursors_.size());
            for (std::size_t c = 0; c < cursors_.size(); ++c) {
                if (refill(cursors_[c]))
                    heap_.push_back(Entry{
                        cursors_[c].buffer[cursors_[c].buffer_pos++], c});
            }
            std::make_heap(heap_.begin(), heap_.end(), greater_);
        }

        bool
        refill(Cursor& cursor)
        {
            if (cursor.buffer_pos < cursor.buffer.size())
                return true;
            if (cursor.next >= cursor.count)
                return false;
            const std::uint64_t n = std::min<std::uint64_t>(
                read_window_, cursor.count - cursor.next);
            cursor.buffer.resize(static_cast<std::size_t>(n));
            owner_->file_->read_at(cursor.base + cursor.next * sizeof(T),
                                   cursor.buffer.data(),
                                   static_cast<std::size_t>(n) * sizeof(T));
            cursor.next += n;
            cursor.buffer_pos = 0;
            return true;
        }

        SortingSpillBuffer* owner_;
        EntryGreater greater_;
        std::vector<Cursor> cursors_;
        std::vector<Entry> heap_;
        std::size_t read_window_ = 1;
    };

    /** Begin draining (single use per fill; see Drain). */
    Drain drain() { return Drain(this); }

    /** Visit every record in `Less` order; the buffer is empty after. */
    template <class Fn>
    void
    drain_sorted(Fn&& fn)
    {
        Drain cursor = drain();
        while (auto item = cursor.next())
            fn(*item);
    }

  private:
    friend class Drain;

    struct ChunkRef {
        std::uint64_t offset = 0;
        std::uint64_t count = 0;
    };

    void
    spill_chunk()
    {
        if (!file_)
            file_ = std::make_unique<SpillFile>(spill_dir_);
        std::sort(pending_.begin(), pending_.end(), less_);
        const std::uint64_t offset = file_->size();
        file_->append(pending_.data(), pending_.size() * sizeof(T));
        spilled_bytes_ += pending_.size() * sizeof(T);
        chunks_.push_back({offset, pending_.size()});
        pending_.clear();
    }

    void
    clear()
    {
        pending_.clear();
        chunks_.clear();
        total_ = 0;
        if (file_)
            file_->reset();
    }

    std::size_t chunk_capacity_;
    Less less_;
    std::string spill_dir_;
    std::vector<T> pending_;
    std::vector<ChunkRef> chunks_;
    std::unique_ptr<SpillFile> file_;
    std::size_t total_ = 0;
    std::uint64_t spilled_bytes_ = 0;
};

}  // namespace darwin::wga

#endif  // DARWIN_WGA_SPILL_H
