/**
 * @file
 * Internal: traceback-pointer storage and the shared traceback walker
 * used by the X-drop reference engine and the GACT-X kernels.
 *
 * Two stores, one `at(i, j)` interface:
 *  - `PointerGrid` (the reference engines): rows store only their
 *    computed column window, two 4-bit pointers per byte in row-major
 *    order (low nibble = even in-row index). For these engines the
 *    stored footprint equals the accounted `traceback_bytes`
 *    ((len + 1) / 2 per row), i.e. the hardware BRAM budget.
 *  - `StripePointerStore` (the wavefront kernels): one code byte per
 *    cell, laid out diagonal-major within each stripe, so a SIMD block
 *    of lanes on one anti-diagonal commits its pointers with a single
 *    contiguous store — the software form of the array writing one
 *    wavefront of pointers per cycle. Its resident footprint is at
 *    least twice the accounted 4-bit `traceback_bytes`, which stays
 *    the hardware figure.
 */
#ifndef DARWIN_ALIGN_DETAIL_POINTER_GRID_H
#define DARWIN_ALIGN_DETAIL_POINTER_GRID_H

#include <cstdint>
#include <span>
#include <vector>

#include "align/cigar.h"
#include "util/logging.h"

namespace darwin::align::detail {

/** V-direction values of the 4-bit hardware pointer. */
enum VDir : std::uint8_t {
    kOrigin = 0,  ///< boundary/pruned; only legal at the tile origin
    kDiag = 1,
    kHGap = 2,  ///< gap consuming target (Delete)
    kVGap = 3,  ///< gap consuming query (Insert)
};

/** One direction pointer, unpacked for the traceback walker. */
struct Pointer {
    std::uint8_t vdir : 2;
    std::uint8_t hopen : 1;
    std::uint8_t vopen : 1;
};

/** 4-bit wire form: vdir in bits 0-1, hopen bit 2, vopen bit 3. */
inline std::uint8_t
pack_pointer(std::uint8_t vdir, bool hopen, bool vopen)
{
    return static_cast<std::uint8_t>(
        vdir | (hopen ? 0x4u : 0u) | (vopen ? 0x8u : 0u));
}

inline Pointer
unpack_pointer(std::uint8_t code)
{
    Pointer p;
    p.vdir = code & 0x3u;
    p.hopen = (code >> 2) & 0x1u;
    p.vopen = (code >> 3) & 0x1u;
    return p;
}

/** Shared `require` messages of the stores' `at()` bounds checks. */
inline constexpr const char* kRowOutOfRange =
    "traceback row out of range";
inline constexpr const char* kOutsideWindow =
    "traceback outside stored window";

/**
 * Rows 1..m of packed pointers (row 0 and column 0 are implicit
 * boundaries). One contiguous byte pool holds every row back to back,
 * each row byte-aligned, so `packed_bytes()` is exact.
 */
class PointerGrid {
  public:
    /** Append the next row from one pointer code per byte, packing. */
    void
    add_row_codes(std::size_t start, const std::uint8_t* codes,
                  std::size_t len)
    {
        rows_.push_back(RowRef{start, bytes_.size(), len});
        for (std::size_t c = 0; c + 1 < len; c += 2)
            bytes_.push_back(static_cast<std::uint8_t>(
                codes[c] | (codes[c + 1] << 4)));
        if (len % 2 != 0)
            bytes_.push_back(codes[len - 1]);
    }

    std::size_t num_rows() const { return rows_.size(); }

    /** True when DP cell (i, j) is inside row i's stored window. */
    bool
    contains(std::size_t i, std::size_t j) const
    {
        if (i < 1 || i > rows_.size())
            return false;
        const RowRef& row = rows_[i - 1];
        return j >= row.start && j - row.start < row.len;
    }

    /** Pointer at DP cell (i, j), i >= 1, j >= 1. */
    Pointer
    at(std::size_t i, std::size_t j) const
    {
        require(i >= 1 && i <= rows_.size(), kRowOutOfRange);
        const RowRef& row = rows_[i - 1];
        require(j >= row.start && j - row.start < row.len, kOutsideWindow);
        const std::size_t nib = j - row.start;
        const std::uint8_t byte = bytes_[row.offset + nib / 2];
        return unpack_pointer((nib % 2 != 0) ? (byte >> 4)
                                             : (byte & 0x0Fu));
    }

    /** Packed (4-bit) byte footprint across all stored rows. */
    std::uint64_t packed_bytes() const { return bytes_.size(); }

  private:
    struct RowRef {
        std::size_t start;   ///< first stored column index (j)
        std::size_t offset;  ///< byte offset of the row in the pool
        std::size_t len;     ///< stored cells
    };

    std::vector<RowRef> rows_;
    std::vector<std::uint8_t> bytes_;
};

/**
 * Stripe-local, diagonal-major pointer codes of the wavefront kernels.
 *
 * Stripe k covers rows k * num_pe + 1 .. k * num_pe + rows. Within it,
 * lane r (row k * num_pe + 1 + r) computes column fdc + dd - r on
 * anti-diagonal dd, and its code byte sits at
 * `pool[offset + dd * num_pe + r]`: every lane of one diagonal is
 * contiguous. The pool is caller-owned (a
 * per-thread scratch buffer reused across tiles), so a tile only pays
 * for growth past the largest tile the thread has seen.
 */
class StripePointerStore {
  public:
    /** Writable bytes past each opened stripe's last diagonal: a block
     *  store of up to kSlack lanes may overrun it. */
    static constexpr std::size_t kSlack = 64;

    StripePointerStore(std::vector<std::uint8_t>& pool, std::size_t num_pe)
        : pool_(pool), npe_(num_pe)
    {
    }

    /**
     * Make room for the next stripe's `diagonals` anti-diagonals and
     * return its cell base: cell (dd, r) at `base[dd * num_pe + r]`.
     * Growing the pool keeps earlier stripes but moves the buffer, so
     * a base is only valid until the next call.
     */
    std::uint8_t*
    open_stripe(std::size_t diagonals)
    {
        const std::size_t need = used_ + diagonals * npe_ + kSlack;
        if (pool_.size() < need)
            pool_.resize(need);
        return pool_.data() + used_;
    }

    /**
     * Record the stripe just filled: `rows` lanes whose stored window
     * is the `cols` completed columns starting at target column `fdc`.
     * Its last stored diagonal is cols + rows - 2; the next stripe
     * starts right after it.
     */
    void
    close_stripe(std::size_t rows, std::size_t fdc, std::size_t cols)
    {
        stripes_.push_back(StripeRef{rows, fdc, cols, used_});
        if (cols != 0)
            used_ += (cols + rows - 1) * npe_;
    }

    /** Pointer at DP cell (i, j), i >= 1, j >= 1. */
    Pointer
    at(std::size_t i, std::size_t j) const
    {
        const std::size_t k = (i - 1) / npe_;
        const std::size_t r = (i - 1) % npe_;
        require(i >= 1 && k < stripes_.size() && r < stripes_[k].rows,
                kRowOutOfRange);
        const StripeRef& s = stripes_[k];
        require(j >= s.fdc && j - s.fdc < s.cols, kOutsideWindow);
        const std::size_t dd = j - s.fdc + r;
        return unpack_pointer(pool_[s.offset + dd * npe_ + r]);
    }

  private:
    struct StripeRef {
        std::size_t rows;    ///< lanes in the stripe
        std::size_t fdc;     ///< target column of c = 0
        std::size_t cols;    ///< completed (stored) columns
        std::size_t offset;  ///< pool offset of diagonal 0
    };

    std::vector<std::uint8_t>& pool_;
    std::size_t npe_;
    std::size_t used_ = 0;
    std::vector<StripeRef> stripes_;
};

/**
 * Walk pointers from cell (i, j) back to the origin, emitting the edit
 * script in forward order. Boundary rules: on reaching row 0 the
 * remaining columns are Deletes; on reaching column 0 the remaining rows
 * are Inserts (both correspond to the gap-initialized DP borders).
 * `Grid` is either store above.
 */
template <class Grid>
Cigar
trace_from(const Grid& grid, std::span<const std::uint8_t> target,
           std::span<const std::uint8_t> query, std::size_t i,
           std::size_t j)
{
    Cigar rev;
    enum class State { V, H, G } state = State::V;
    while (i != 0 || j != 0) {
        if (i == 0) {
            rev.push(EditOp::Delete, static_cast<std::uint32_t>(j));
            break;
        }
        if (j == 0) {
            rev.push(EditOp::Insert, static_cast<std::uint32_t>(i));
            break;
        }
        const Pointer p = grid.at(i, j);
        if (state == State::V) {
            switch (p.vdir) {
              case kDiag: {
                const bool eq = target[j - 1] == query[i - 1] &&
                                seq::is_concrete(target[j - 1]);
                rev.push(eq ? EditOp::Match : EditOp::Mismatch);
                --i;
                --j;
                break;
              }
              case kHGap:
                state = State::H;
                break;
              case kVGap:
                state = State::G;
                break;
              default:
                panic("trace_from: pointer into pruned cell");
            }
        } else if (state == State::H) {
            rev.push(EditOp::Delete);
            --j;
            if (p.hopen)
                state = State::V;
        } else {
            rev.push(EditOp::Insert);
            --i;
            if (p.vopen)
                state = State::V;
        }
    }
    rev.reverse();
    return rev;
}

}  // namespace darwin::align::detail

#endif  // DARWIN_ALIGN_DETAIL_POINTER_GRID_H
