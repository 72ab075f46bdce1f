/**
 * @file
 * The seeded mutation fuzzer the reader tests share (there is no
 * clang here, so no libFuzzer). Each mutant is a seed input put through
 * one to three mutations: truncation, a bit flip, a splice of a slice
 * of another seed, or one of the caller's format-specific mutations
 * (oversize JSON numbers and deep nesting in json_test.cpp, oversize
 * header integers in artifact_test.cpp). The property is that the
 * reader either accepts a mutant or throws its tagged error; any other
 * exception fails the test, and a crash or a sanitizer report fails the
 * run. A fixed seed makes every run feed the same mutants.
 */
#ifndef DARWIN_TESTS_FUZZ_DRIVER_H
#define DARWIN_TESTS_FUZZ_DRIVER_H

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "util/rng.h"

namespace darwin::test {

/** A format-specific mutation of `text`, in place. */
using Mutation = std::function<void(std::string& text, Rng& rng)>;

/** A random position in [0, text.size()]. */
inline std::size_t
cut_point(const std::string& text, Rng& rng)
{
    return static_cast<std::size_t>(rng.uniform(text.size() + 1));
}

/** One mutation of `text`; `seeds` supplies splice material. */
inline std::string
mutate(std::string text, const std::vector<std::string>& seeds,
       const std::vector<Mutation>& extra, Rng& rng)
{
    const std::uint64_t choice = rng.uniform(3 + extra.size());
    switch (choice) {
    case 0:  // truncation
        text.resize(cut_point(text, rng));
        break;
    case 1:  // bit flip
        if (!text.empty())
            text[cut_point(text, rng) % text.size()] ^=
                static_cast<char>(1u << rng.uniform(8));
        break;
    case 2: {  // splice: a slice of another seed at a random point
        const std::string& donor = seeds[rng.uniform(seeds.size())];
        const std::size_t from = cut_point(donor, rng);
        text.insert(cut_point(text, rng),
                    donor.substr(from, rng.uniform(donor.size() - from + 1)));
        break;
    }
    default:
        extra[choice - 3](text, rng);
        break;
    }
    return text;
}

/**
 * Feed `iterations` mutants of `seeds` to `reader`; anything it throws
 * must be a `Tagged`. Returns how many mutants it accepted.
 */
template <class Tagged>
std::size_t
fuzz(const std::vector<std::string>& seeds, std::uint64_t seed,
     int iterations, const std::vector<Mutation>& extra,
     const std::function<void(const std::string&)>& reader)
{
    Rng rng(seed);
    std::size_t accepted = 0;
    for (int i = 0; i < iterations; ++i) {
        std::string input = seeds[rng.uniform(seeds.size())];
        const int rounds = 1 + static_cast<int>(rng.uniform(3));
        for (int r = 0; r < rounds; ++r)
            input = mutate(std::move(input), seeds, extra, rng);
        try {
            reader(input);
            ++accepted;
        } catch (const Tagged&) {
        } catch (const std::exception& error) {
            ADD_FAILURE() << "untagged " << typeid(error).name() << " ("
                          << error.what() << ") on: " << input.substr(0, 200);
        }
    }
    return accepted;
}

}  // namespace darwin::test

#endif  // DARWIN_TESTS_FUZZ_DRIVER_H
