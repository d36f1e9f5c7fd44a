// The common grammar of the `key = value` file formats (.drlsc scenarios,
// .drlfs fleet specs, .drlfr fleet results), tested once across all three:
// every format goes through the one scanner (util::Config::from_text), so
// each failure mode below must behave the same way in each of them, apart
// from what docs/FORMATS.md says differs (sections; unknown keys in .drlfr).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/scenario_space.h"
#include "scenario/scenario_io.h"

namespace drlnoc {
namespace {

constexpr char kScenarioBody[] =
    "width = 4\nheight = 4\nduration = 1000\ntenants = 1\n"
    "tenant0.workload = steady\ntenant0.rate = 0.05\n";

/// One format under test: its magic line, a minimal valid body, and a
/// parser that returns a canonical summary of what it read.
struct Format {
  std::string name;
  std::string magic;
  std::string body;
  bool rejects_unknown_keys;
  std::function<std::string(const std::string&)> parse;

  std::string text() const { return magic + "\n" + body; }
  /// The 1-based line number of a line appended to text().
  int next_line() const {
    return static_cast<int>(std::count(body.begin(), body.end(), '\n')) + 2;
  }
};

/// One directory per test: ctest runs the tests as parallel processes, so
/// a shared r.drlfr or base.drlsc would be rewritten under a reader's feet.
std::string scratch_dir() {
  const std::string dir =
      ::testing::TempDir() + "formats_grammar_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<Format> formats() {
  const std::string dir = scratch_dir();
  {
    std::ofstream base(dir + "/base.drlsc");
    base << "drlsc 1\n" << kScenarioBody;
  }
  std::vector<Format> out;
  out.push_back({"drlsc", "drlsc 1", kScenarioBody, true,
                 [](const std::string& text) {
                   std::ostringstream os;
                   scenario::ScenarioWriter::write_text(
                       os, scenario::ScenarioReader::read_text(text));
                   return os.str();
                 }});
  out.push_back({"drlfs", "drlfs 1",
                 "name = grammar\nbase = base.drlsc\nseeds = 2\naxes = 1\n"
                 "axis0.key = tenant0.rate\naxis0.values = 0.02,0.05\n",
                 true, [dir](const std::string& text) {
                   const fleet::ScenarioSpace space =
                       fleet::ScenarioSpaceReader::read_text(text, dir);
                   return space.name + " " + std::to_string(space.size()) +
                          " " + space.expand(3).label;
                 }});
  out.push_back({"drlfr", "drlfr 1",
                 "index = 3\nlabel = grammar[3] seed+1\nseed = 6\n"
                 "reward = 0.1\ntenants = 1\ntenant0.name = a\n"
                 "tenant0.slo_hit_rate = 0.5\n",
                 false, [dir](const std::string& text) {
                   const std::string path = dir + "/r.drlfr";
                   {
                     std::ofstream os(path, std::ios::binary);
                     os << text;
                   }
                   const auto r = fleet::read_result_file(path);
                   std::ostringstream os;
                   os.precision(17);
                   os << r->index << " " << r->label << " " << r->seed << " "
                      << r->reward << " " << r->tenants.size() << " "
                      << r->tenants.at(0).name << " "
                      << r->tenants.at(0).slo_hit_rate;
                   return os.str();
                 }});
  return out;
}

/// The message `parse(text)` throws, or "" when it parses.
std::string error_of(const Format& f, const std::string& text) {
  try {
    f.parse(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::string line_suffix(int line) {
  return " (line " + std::to_string(line) + ")";
}

TEST(TextGrammar, RejectsMissingOrWrongMagic) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    const std::string missing = "missing magic line (expected '" + f.magic +
                                "')";
    EXPECT_NE(error_of(f, f.body).find(missing), std::string::npos);
    // A key before the magic line is just as missing a magic line.
    EXPECT_NE(error_of(f, "name = early\n" + f.text()).find(missing),
              std::string::npos);
    EXPECT_NE(error_of(f, "").find(missing), std::string::npos);
    // Comments and blank lines may precede it.
    EXPECT_EQ(error_of(f, "# header comment\n\n" + f.text()), "");

    const std::string wrong = f.name + " 2\n" + f.body;
    EXPECT_NE(error_of(f, wrong).find("unsupported format version 2"),
              std::string::npos)
        << error_of(f, wrong);

    // The line is exactly `<magic> <integer>`: none of these is version 1.
    for (const std::string version : {"1.5", "1junk", "1 extra"}) {
      const std::string line = f.name + " " + version;
      const std::string msg = error_of(f, line + "\n" + f.body);
      EXPECT_NE(msg.find("bad magic line '" + line + "' (expected '" +
                         f.magic + "')"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(TextGrammar, RejectsLineWithoutEquals) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    const std::string msg = error_of(f, f.text() + "  stray words  \n");
    EXPECT_NE(msg.find("bad config line " + std::to_string(f.next_line()) +
                       ": stray words"),
              std::string::npos)
        << msg;
    EXPECT_NE(error_of(f, f.text() + "= value\n").find("bad config line"),
              std::string::npos);
  }
}

TEST(TextGrammar, UnknownKeysRejectedWithLineOrIgnored) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    const std::string msg = error_of(f, f.text() + "frobnicate = 1\n");
    if (f.rejects_unknown_keys) {
      EXPECT_NE(msg.find("unknown key 'frobnicate'" +
                         line_suffix(f.next_line())),
                std::string::npos)
          << msg;
    } else {
      // Additive extensions keep the version: old readers skip new keys.
      EXPECT_EQ(msg, "");
      EXPECT_EQ(f.parse(f.text() + "frobnicate = 1\n"), f.parse(f.text()));
    }
  }
}

TEST(TextGrammar, RejectsUnknownAndDuplicateSections) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    const int line = f.next_line();
    const std::string unknown = error_of(f, f.text() + "[bogus]\nx = 1\n");
    EXPECT_NE(unknown.find("unknown section '[bogus]'" + line_suffix(line)),
              std::string::npos)
        << unknown;

    // Only .drlsc declares sections; elsewhere [faults] is unknown too.
    const std::string twice =
        error_of(f, f.text() + "[faults]\nseed = 3\n[faults]\nseed = 4\n");
    const std::string want =
        f.name == "drlsc" ? "duplicate [faults] block" + line_suffix(line + 2)
                          : "unknown section '[faults]'" + line_suffix(line);
    EXPECT_NE(twice.find(want), std::string::npos) << twice;
  }
}

TEST(TextGrammar, RejectsDuplicateKeys) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    // Repeat the body's first key: the repeat is an error, not an update.
    const std::string first = f.body.substr(0, f.body.find('\n'));
    const std::string key = first.substr(0, first.find(" ="));
    const std::string msg = error_of(f, f.text() + first + "\n");
    EXPECT_NE(msg.find("duplicate key '" + key + "'" +
                       line_suffix(f.next_line())),
              std::string::npos)
        << msg;
  }
  // Keys compare with their section prefix: `seed`, `[faults] seed` and
  // `[churn] seed` are three keys, but a repeat within a section is not.
  const Format drlsc = formats().front();
  const std::string seeds = drlsc.text() +
                            "seed = 3\n[faults]\nseed = 4\n[churn]\nseed = 5\n";
  EXPECT_EQ(error_of(drlsc, seeds), "");
  const std::string twice = error_of(drlsc, seeds + "seed = 6\n");
  EXPECT_NE(twice.find("duplicate key 'churn.seed'" +
                       line_suffix(drlsc.next_line() + 5)),
            std::string::npos)
      << twice;
}

TEST(TextGrammar, CrlfAndTrailingWhitespaceReadAsLf) {
  for (const Format& f : formats()) {
    SCOPED_TRACE(f.name);
    std::string crlf;
    for (const char c : f.text()) {
      crlf += c == '\n' ? std::string(" \t\r\n") : std::string(1, c);
    }
    EXPECT_EQ(error_of(f, crlf), "");
    EXPECT_EQ(f.parse(crlf), f.parse(f.text()));
  }
}

}  // namespace
}  // namespace drlnoc
