/**
 * @file
 * LRU cache of seed indexes keyed by the inputs that determine the
 * table bytes: the target-sequence digest, the seed shape, and the
 * repeat cap.
 *
 * acquire() is single-flight: when several threads ask for the same
 * missing key at once, one runs the builder and the rest block on its
 * shared_future — batch pairs sharing a target and the serve daemon's
 * concurrent requests both hit this path. Entries are
 * shared_ptrs, so eviction never invalidates an index a pair is still
 * seeding with; the bytes go away when the last borrower drops.
 *
 * Metrics (optional): `<prefix>.cache_hits`, `<prefix>.cache_misses`,
 * `<prefix>.cache_evictions` counters plus a `<prefix>.cache_size`
 * gauge, e.g. prefix "serve.index" in the daemon (the batch engine's
 * run-local cache is unmetered; it counts batch.index.cache_hits
 * itself).
 */
#ifndef DARWIN_INDEX_INDEX_CACHE_H
#define DARWIN_INDEX_INDEX_CACHE_H

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "seed/seed_index.h"

namespace darwin::obs {
class MetricsRegistry;
}

namespace darwin::index {

/** Everything that determines a seed table's content. */
struct IndexKey {
    std::uint64_t digest = 0;   ///< fnv1a64 over the target codes
    std::string pattern;        ///< seed-shape string ('1'/'0')
    std::uint32_t max_bucket = seed::SeedIndex::kDefaultMaxBucket;

    bool operator==(const IndexKey&) const = default;
};

struct IndexKeyHash {
    std::size_t operator()(const IndexKey& key) const;
};

/** Thread-safe LRU cache of immutable seed indexes. */
class IndexCache {
  public:
    using Builder =
        std::function<std::shared_ptr<const seed::SeedIndex>()>;

    /**
     * @param capacity Max resident entries (>= 1; in-flight builds do
     *        not count until they land).
     * @param metrics Optional registry for the cache counters.
     * @param metric_prefix Metric-name prefix, e.g. "batch.index".
     */
    explicit IndexCache(std::size_t capacity,
                        obs::MetricsRegistry* metrics = nullptr,
                        std::string metric_prefix = "index");

    /**
     * Return the cached index for `key`, or run `builder` to create it.
     * Concurrent callers of the same missing key share one build. The
     * builder's result is validated non-null before insertion; a builder
     * that throws propagates the exception to every waiter and leaves
     * the cache without an entry.
     *
     * @param built When non-null, set to true iff this call (or the
     *        in-flight build it joined) constructed the index rather
     *        than finding it resident — how callers distinguish a hit
     *        for their own accounting.
     */
    std::shared_ptr<const seed::SeedIndex>
    acquire(const IndexKey& key, const Builder& builder,
            bool* built = nullptr);

    /** True when `key` is resident (does not touch LRU order). */
    bool contains(const IndexKey& key) const;

    /** Resident entry count. */
    std::size_t size() const;

    /** Drop every resident entry (borrowed indexes stay alive). */
    void clear();

    std::size_t capacity() const { return capacity_; }
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;

  private:
    struct Entry {
        IndexKey key;
        std::shared_ptr<const seed::SeedIndex> index;
    };
    using LruList = std::list<Entry>;

    void touch_locked(LruList::iterator it);
    void insert_locked(const IndexKey& key,
                       std::shared_ptr<const seed::SeedIndex> index);

    const std::size_t capacity_;
    obs::MetricsRegistry* const metrics_;
    const std::string prefix_;

    mutable std::mutex mutex_;
    LruList lru_;  // front = most recent
    std::unordered_map<IndexKey, LruList::iterator, IndexKeyHash> map_;
    std::unordered_map<
        IndexKey,
        std::shared_future<std::shared_ptr<const seed::SeedIndex>>,
        IndexKeyHash>
        inflight_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace darwin::index

#endif  // DARWIN_INDEX_INDEX_CACHE_H
