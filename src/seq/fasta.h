/**
 * @file
 * FASTA reading and writing.
 *
 * One tokenizer reads every FASTA input, byte-per-base and packed
 * alike: `parse_fasta` runs over the file's bytes (the readers hand it
 * an mmap, tests a string) and owns every acceptance rule and
 * diagnostic. A line ends at '\n' and one trailing '\r' is dropped;
 * blank lines and lines starting with ';' are skipped; a '>' line opens
 * a record whose name is the header's first whitespace-delimited
 * token. In sequence data whitespace is skipped and every other byte
 * must be an IUPAC nucleotide letter (any case). Malformed input
 * raises FatalError with a `where:line:` message: an empty name, data
 * before the first header, a record with no bases, a non-letter, a
 * non-IUPAC letter, or a file with no records.
 */
#ifndef DARWIN_SEQ_FASTA_H
#define DARWIN_SEQ_FASTA_H

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "seq/genome.h"
#include "seq/sequence.h"

namespace darwin::seq {

/** How a parsed genome stores its bases (seq/genome.h). */
enum class GenomeStorage { Bytes, Packed };

/** Parse FASTA bytes into a Genome named `where`, one chromosome per
 *  record; `where` also names the input in diagnostics. */
Genome parse_fasta(std::span<const std::uint8_t> fasta,
                   const std::string& where, GenomeStorage storage);

/** Read a FASTA file as a byte-per-base Genome named by its path. */
Genome read_genome(const std::string& path);

/** Write records to a stream with the given line width. */
void write_fasta(std::ostream& out, const std::vector<Sequence>& records,
                 std::size_t line_width = 60);

/** Write a genome (one record per chromosome) to a file. */
void write_genome_file(const std::string& path, const Genome& genome,
                       std::size_t line_width = 60);

}  // namespace darwin::seq

#endif  // DARWIN_SEQ_FASTA_H
