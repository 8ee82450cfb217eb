/**
 * @file
 * Seeded mutation fuzzing of Trace::readCsv. Every committed CSV
 * fixture and one longer valid trace are mutated byte-wise (replace,
 * insert, delete, duplicate a span) by a fixed-seed generator, and
 * each mutant is parsed in a child process. The contract: the parse
 * either yields a time-sorted trace whose every event is in range
 * (exit 0 here) or exits 1 with a "<source> row N: " diagnostic. An
 * abort, a crash or a sanitizer report fails the test. gcc ships no
 * libFuzzer, so this deterministic test stands in for one;
 * tools/check.sh asan runs it sanitized.
 */

#include "workload/trace.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace proteus {
namespace {

constexpr std::size_t kFamilies = 10;
constexpr int kMutantsPerFixture = 30;

/** Bytes a mutation writes: the CSV grammar's own, plus a few others. */
constexpr char kAlphabet[] = "0123456789,,-+.eExX \t\r\n\n";

/** The committed CSV fixtures, plus one longer valid trace. */
std::vector<std::string>
seedInputs()
{
    std::vector<std::filesystem::path> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(CONFIG_FIXTURE_DIR)) {
        if (entry.path().extension() == ".csv")
            paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> texts;
    for (const auto& path : paths) {
        std::ifstream in(path, std::ios::binary);
        texts.emplace_back(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
    Trace longer;
    for (int i = 0; i < 16; ++i)
        longer.append(micros(1000 + 250 * i),
                      static_cast<FamilyId>(i % kFamilies));
    std::ostringstream csv;
    longer.writeCsv(csv);
    texts.push_back(csv.str());
    return texts;
}

char
pickByte(Rng& rng)
{
    // One draw in eight is any byte at all (NUL and high bytes too).
    if (rng.uniformInt(0, 7) == 0)
        return static_cast<char>(rng.uniformInt(0, 255));
    return kAlphabet[rng.uniformInt(0, sizeof(kAlphabet) - 2)];
}

/** Apply one to three random byte edits to @p text. */
std::string
mutate(std::string text, Rng& rng)
{
    const auto at = [&](std::size_t extra) {
        return static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(text.size() + extra) - 1));
    };
    const std::int64_t edits = rng.uniformInt(1, 3);
    for (std::int64_t i = 0; i < edits; ++i) {
        switch (text.empty() ? 1 : rng.uniformInt(0, 3)) {
          case 0:
            text[at(0)] = pickByte(rng);
            break;
          case 1: {
            const std::size_t pos = at(1);
            text.insert(pos, 1, pickByte(rng));
            break;
          }
          case 2:
            text.erase(at(0), 1);
            break;
          default: {
            // Duplicate a span: repeats digits, rows and separators.
            const std::size_t from = at(0);
            const std::size_t len = std::min<std::size_t>(
                text.size() - from,
                static_cast<std::size_t>(rng.uniformInt(1, 12)));
            const std::size_t pos = at(1);
            text.insert(pos, text.substr(from, len));
            break;
          }
        }
    }
    return text;
}

/**
 * Child side: parse @p text and exit 0 when the trace keeps the
 * contract, 2 (with the reason) when it does not. A rejected row never
 * returns from readCsv: it exits 1.
 */
void
parseAndCheck(const std::string& text)
{
    std::istringstream in(text);
    const Trace t = Trace::readCsv(in, "mutant", kFamilies);
    const auto& e = t.events();
    for (std::size_t i = 0; i < e.size(); ++i) {
        const bool sorted = i == 0 || e[i - 1].at <= e[i].at;
        if (!sorted || e[i].at < 0 || e[i].at > kMaxTraceTime ||
            e[i].family >= kFamilies) {
            std::cerr << "broken event " << i << "\n";
            std::exit(2);
        }
    }
    std::cerr << "parsed " << e.size() << " events\n";
    std::exit(0);
}

TEST(TraceFuzzDeathTest, MutatedCsvParsesCleanlyOrExitsOne)
{
    const std::vector<std::string> fixtures = seedInputs();
    ASSERT_GE(fixtures.size(), 7u) << "CSV fixtures not found";
    Rng rng(0x7ace);
    int accepted = 0;
    int rejected = 0;
    const auto parsedOrRejected = [&](int status) {
        if (!WIFEXITED(status))
            return false;
        accepted += WEXITSTATUS(status) == 0;
        rejected += WEXITSTATUS(status) == 1;
        return WEXITSTATUS(status) <= 1;
    };
    for (std::size_t f = 0; f < fixtures.size(); ++f) {
        for (int m = 0; m < kMutantsPerFixture; ++m) {
            const std::string text = mutate(fixtures[f], rng);
            EXPECT_EXIT(parseAndCheck(text), parsedOrRejected,
                        "parsed [0-9]+ events|fatal: mutant row [0-9]+: ")
                << "fixture " << f << " mutant " << m << ":\n"
                << text;
        }
    }
    // Both outcomes occur, so the mutants reach past the first row.
    EXPECT_GT(accepted, 10);
    EXPECT_GT(rejected, 10);
}

}  // namespace
}  // namespace proteus
