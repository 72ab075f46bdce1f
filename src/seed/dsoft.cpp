#include "seed/dsoft.h"

#include <algorithm>
#include <mutex>

#include "fault/cancel.h"
#include "util/logging.h"

namespace darwin::seed {

namespace {

/// Band ids fit comfortably below 2^33 (a 32-bit target position plus the
/// chunk span, divided by the bin size), so all-ones is a safe sentinel.
constexpr std::uint64_t kEmptyKey = ~0ull;

/** Per-band accumulator: hit count plus the first hit seen. */
struct BandSlot {
    std::uint64_t key = kEmptyKey;
    std::uint32_t hits = 0;
    SeedHit first;
};

/**
 * Flat open-addressing band table (linear probing, power-of-two
 * capacity). seed_chunk is the hottest seeding loop and the band map is
 * its only allocation; an unordered_map pays a node allocation plus a
 * pointer chase per band, while this table is two cache lines per probe
 * and is reused across chunks via per-thread scratch.
 */
class BandTable {
public:
    /** Size for a chunk expected to perform ~`lookups` index lookups and
     *  clear whatever the previous chunk left behind. */
    void prepare(std::size_t lookups) {
        std::size_t cap = 64;
        while (cap < lookups * 2)
            cap <<= 1;
        if (cap > slots_.size()) {
            slots_.assign(cap, BandSlot{});
        } else {
            for (const std::uint32_t idx : used_)
                slots_[idx] = BandSlot{};
        }
        used_.clear();
    }

    BandSlot& find_or_insert(std::uint64_t key) {
        if ((used_.size() + 1) * 10 >= slots_.size() * 7)
            grow();  // keep load factor under 0.7
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (true) {
            BandSlot& slot = slots_[i];
            if (slot.key == key)
                return slot;
            if (slot.key == kEmptyKey) {
                slot.key = key;
                used_.push_back(static_cast<std::uint32_t>(i));
                return slot;
            }
            i = (i + 1) & mask;
        }
    }

    template <class Fn>
    void for_each(Fn&& fn) const {
        for (const std::uint32_t idx : used_)
            fn(slots_[idx]);
    }

private:
    static std::size_t hash(std::uint64_t key) {
        key *= 0x9e3779b97f4a7c15ull;  // Fibonacci multiplicative hash
        return static_cast<std::size_t>(key >> 29);
    }

    void grow() {
        std::vector<BandSlot> old = std::move(slots_);
        std::vector<std::uint32_t> old_used = std::move(used_);
        slots_.assign(old.size() * 2, BandSlot{});
        used_.clear();
        const std::size_t mask = slots_.size() - 1;
        for (const std::uint32_t idx : old_used) {
            const BandSlot& src = old[idx];
            std::size_t i = hash(src.key) & mask;
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask;
            slots_[i] = src;
            used_.push_back(static_cast<std::uint32_t>(i));
        }
    }

    std::vector<BandSlot> slots_;
    std::vector<std::uint32_t> used_;  ///< occupied slot indices
};

BandTable&
band_scratch()
{
    thread_local BandTable table;
    return table;
}

}  // namespace

DsoftSeeder::DsoftSeeder(const SeedIndex& index, DsoftParams params)
    : index_(index), params_(params)
{
    require(params_.chunk_size > 0, "DsoftSeeder: chunk_size must be > 0");
    require(params_.bin_size > 0, "DsoftSeeder: bin_size must be > 0");
    require(params_.query_stride > 0, "DsoftSeeder: stride must be > 0");
    require(params_.min_hits_per_band > 0, "DsoftSeeder: h must be > 0");
}

template <class Source>
std::vector<SeedHit>
DsoftSeeder::seed_chunk_impl(const Source& query, std::size_t chunk_begin,
                             std::size_t chunk_end, SeedingStats* stats) const
{
    fault::poll("seed.chunk");
    const SeedPattern& pattern = index_.pattern();
    SeedingStats local;
    // Diagonal band id -> accumulated state. Hits are projected along
    // their diagonal to the chunk end so that a run of collinear hits
    // inside the chunk lands in one band. Sized from the chunk's lookup
    // budget (one probe position per stride step).
    BandTable& bands = band_scratch();
    bands.prepare((chunk_end - chunk_begin) / params_.query_stride + 1);

    auto record_hits = [&](std::span<const std::uint32_t> hits,
                           std::size_t q) {
        for (const std::uint32_t t : hits) {
            // Diagonal projection: target position at the chunk end.
            const std::uint64_t projected =
                static_cast<std::uint64_t>(t) + (chunk_end - q);
            const std::uint64_t band = projected / params_.bin_size;
            ++local.seed_hits;
            BandSlot& state = bands.find_or_insert(band);
            if (state.hits == 0)
                state.first = SeedHit{t, q};
            ++state.hits;
        }
    };

    for (std::size_t q = chunk_begin; q < chunk_end;
         q += params_.query_stride) {
        const auto key = pattern.key_at(query, q);
        if (!key)
            continue;
        ++local.seed_lookups;
        record_hits(index_.lookup(*key), q);
        if (params_.transitions) {
            for (const SeedKey neighbor : pattern.transition_neighbors(*key)) {
                ++local.seed_lookups;
                record_hits(index_.lookup(neighbor), q);
            }
        }
    }

    std::vector<SeedHit> out;
    bands.for_each([&](const BandSlot& state) {
        if (state.hits >= params_.min_hits_per_band) {
            out.push_back(state.first);
            ++local.candidates;
        }
    });
    std::sort(out.begin(), out.end(), [](const SeedHit& a, const SeedHit& b) {
        return a.query_pos != b.query_pos ? a.query_pos < b.query_pos
                                          : a.target_pos < b.target_pos;
    });
    if (params_.max_hits_per_chunk != 0 &&
        out.size() > params_.max_hits_per_chunk) {
        out.resize(params_.max_hits_per_chunk);
        local.candidates = out.size();
    }
    if (stats)
        stats->merge(local);
    fault::charge_heap_bytes(out.size() * sizeof(SeedHit));
    return out;
}

template <class Source>
std::vector<SeedHit>
DsoftSeeder::seed_all_impl(const Source& query, std::size_t query_size,
                           SeedingStats* stats, ThreadPool* pool) const
{
    const std::size_t num_chunks =
        (query_size + params_.chunk_size - 1) / params_.chunk_size;

    std::vector<std::vector<SeedHit>> per_chunk(num_chunks);
    std::vector<SeedingStats> per_chunk_stats(num_chunks);

    auto do_chunk = [&](std::size_t chunk) {
        const std::size_t begin = chunk * params_.chunk_size;
        const std::size_t end =
            std::min(query_size, begin + params_.chunk_size);
        per_chunk[chunk] =
            seed_chunk_impl(query, begin, end, &per_chunk_stats[chunk]);
    };

    if (pool) {
        pool->parallel_for(0, num_chunks, do_chunk);
    } else {
        for (std::size_t chunk = 0; chunk < num_chunks; ++chunk)
            do_chunk(chunk);
    }

    std::vector<SeedHit> out;
    std::size_t total = 0;
    for (const auto& hits : per_chunk)
        total += hits.size();
    out.reserve(total);
    for (auto& hits : per_chunk) {
        out.insert(out.end(), hits.begin(), hits.end());
    }
    if (stats) {
        for (const auto& s : per_chunk_stats)
            stats->merge(s);
    }
    return out;
}

std::vector<SeedHit>
DsoftSeeder::seed_chunk(seq::BaseView query, std::size_t chunk_begin,
                        std::size_t chunk_end, SeedingStats* stats) const
{
    if (query.packed())
        return seed_chunk_impl(*query.packed_sequence(), chunk_begin,
                               chunk_end, stats);
    return seed_chunk_impl(query.bytes(), chunk_begin, chunk_end, stats);
}

std::vector<SeedHit>
DsoftSeeder::seed_all(const seq::Sequence& query, SeedingStats* stats,
                      ThreadPool* pool) const
{
    const std::span<const std::uint8_t> codes{query.codes().data(),
                                              query.size()};
    return seed_all_impl(codes, query.size(), stats, pool);
}

std::vector<SeedHit>
DsoftSeeder::seed_all(const seq::PackedSequence& query, SeedingStats* stats,
                      ThreadPool* pool) const
{
    return seed_all_impl(query, query.size(), stats, pool);
}

}  // namespace darwin::seed
