/**
 * @file
 * Genome: an ordered collection of chromosomes with a flattened coordinate
 * space.
 *
 * The WGA pipeline indexes the *flattened* target (chromosomes
 * concatenated, separated by runs of N so no seed can straddle a boundary)
 * and later maps flat positions back to (chromosome, offset) pairs for
 * reporting. This mirrors how whole-genome aligners treat multi-contig
 * assemblies.
 *
 * A genome stores its chromosomes either byte-per-base (the historical
 * mode, kept for small inputs and existing callers) or 2-bit packed
 * (PackedSequence, a quarter of the bytes; `--packed` ingestion).
 * The two modes never mix within one genome. Coordinate queries
 * (flat_offset / resolve / flat_length) work in both modes without
 * materializing any bases; byte accessors on a packed genome decode
 * lazily into caches that release_decoded() can drop.
 */
#ifndef DARWIN_SEQ_GENOME_H
#define DARWIN_SEQ_GENOME_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "seq/packed_sequence.h"
#include "seq/sequence.h"

namespace darwin::seq {

/** A position resolved to a chromosome. */
struct GenomePosition {
    std::size_t chromosome = 0;  ///< index into chromosomes()
    std::size_t offset = 0;      ///< 0-based offset within the chromosome
};

/** A multi-chromosome genome assembly. */
class Genome {
  public:
    Genome() = default;
    explicit Genome(std::string name) : name_(std::move(name)) {}

    // Copies carry the stored chromosomes but start with cold caches
    // (the lazily decoded byte views are unique_ptr-held and rebuild on
    // demand; copying them would defeat release_decoded()).
    Genome(const Genome& other) { *this = other; }

    Genome&
    operator=(const Genome& other)
    {
        if (this == &other)
            return *this;
        name_ = other.name_;
        packed_mode_ = other.packed_mode_;
        chromosomes_ = other.chromosomes_;
        packed_chromosomes_ = other.packed_chromosomes_;
        decoded_.clear();
        flat_ = Sequence();
        flat_valid_ = false;
        packed_flat_ = PackedSequence();
        packed_flat_valid_ = false;
        flat_offsets_.clear();
        flat_length_ = 0;
        offsets_valid_ = false;
        return *this;
    }

    Genome(Genome&&) = default;
    Genome& operator=(Genome&&) = default;

    const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /** Append a byte-mode chromosome; returns its index. */
    std::size_t add_chromosome(Sequence chromosome);

    /** Append a packed chromosome; returns its index. A genome is
     *  either all-byte or all-packed — mixing is a fatal error. */
    std::size_t add_chromosome(PackedSequence chromosome);

    /** True when chromosomes are stored 2-bit packed. */
    bool packed() const { return packed_mode_; }

    std::size_t num_chromosomes() const;

    /** Chromosome name/length without materializing bases (any mode). */
    const std::string& chromosome_name(std::size_t i) const;
    std::size_t chromosome_length(std::size_t i) const;

    /** Byte-mode accessor; on a packed genome decodes lazily (cached
     *  until release_decoded()). */
    const Sequence& chromosome(std::size_t i) const;

    /** Byte-mode chromosome vector. Fatal on a packed genome — callers
     *  that only need names/lengths should use the accessors above. */
    const std::vector<Sequence>& chromosomes() const;

    /** Packed accessor; fatal on a byte-mode genome. */
    const PackedSequence& packed_chromosome(std::size_t i) const;
    const std::vector<PackedSequence>& packed_chromosomes() const;

    /** Total bases across all chromosomes (no separators). */
    std::size_t total_length() const;

    /** Flattened length including separators; never materializes. */
    std::size_t flat_length() const;

    /**
     * Flattened byte sequence: chromosomes joined by separator_length()
     * Ns. Rebuilt lazily; invalidated by add_chromosome(). On a packed
     * genome this decodes the whole assembly — prefer
     * flattened_packed() there.
     */
    const Sequence& flattened() const;

    /**
     * Flattened 2-bit sequence. On a packed genome this concatenates
     * packed words without ever decoding; on a byte genome it packs
     * flattened(). Cached lazily.
     */
    const PackedSequence& flattened_packed() const;

    /** Drop lazily decoded byte caches (packed mode only; byte-mode
     *  storage is never touched). */
    void release_decoded() const;

    /** Number of N separators inserted between chromosomes when
     *  flattening. 256 Ns cost -25,600 under the paper matrix — far
     *  beyond the GACT-X X-drop bound (Y = 9,430), so no extension can
     *  ever cross a chromosome boundary. */
    static constexpr std::size_t separator_length() { return 256; }

    /** Flat start offset of a chromosome within flattened(). */
    std::size_t flat_offset(std::size_t chromosome_index) const;

    /**
     * Map a flat position back to (chromosome, offset). Positions inside a
     * separator resolve to the *following* chromosome at offset 0 with
     * in_separator set.
     */
    GenomePosition resolve(std::size_t flat_position,
                           bool* in_separator = nullptr) const;

  private:
    void rebuild_flat() const;
    void ensure_offsets() const;

    std::string name_;
    bool packed_mode_ = false;
    std::vector<Sequence> chromosomes_;
    std::vector<PackedSequence> packed_chromosomes_;
    // Lazily decoded byte views of packed chromosomes (packed mode).
    mutable std::vector<std::unique_ptr<Sequence>> decoded_;
    mutable Sequence flat_;
    mutable bool flat_valid_ = false;
    mutable PackedSequence packed_flat_;
    mutable bool packed_flat_valid_ = false;
    // Coordinate tables, derived from lengths alone (no bases).
    mutable std::vector<std::size_t> flat_offsets_;
    mutable std::size_t flat_length_ = 0;
    mutable bool offsets_valid_ = false;
};

}  // namespace darwin::seq

#endif  // DARWIN_SEQ_GENOME_H
