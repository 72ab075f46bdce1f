/**
 * @file
 * RAII scratch directory for tests that write files (indexes, FASTA,
 * MAF, sidecars): created under ::testing::TempDir() and keyed by pid,
 * so concurrent test processes never share one; removed with everything
 * written into it when the guard is destroyed.
 */
#ifndef DARWIN_TESTS_SCRATCH_DIR_H
#define DARWIN_TESTS_SCRATCH_DIR_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace darwin::test {

class ScratchDir {
  public:
    explicit ScratchDir(const std::string& tag)
        : path_(::testing::TempDir() + "/" + tag + "_" +
                std::to_string(::getpid()))
    {
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    /** Path of `name` inside the directory. */
    std::string
    file(const std::string& name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

}  // namespace darwin::test

#endif  // DARWIN_TESTS_SCRATCH_DIR_H
