#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace drlnoc::util {

namespace {
std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return std::string();
  return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}
}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    // Flag spelling: "--key=value" or "--key value" normalize to "key=value".
    const bool dashed = token.rfind("--", 0) == 0;
    if (dashed) token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos && eq != 0) {
      cfg.set(token.substr(0, eq), token.substr(eq + 1));
      continue;
    }
    if (dashed && !token.empty() && eq == std::string::npos && i + 1 < argc) {
      // Consume the next token as this flag's value unless it is itself a
      // flag. Values may contain '=' (e.g. `--workload trace=app.drltrc`).
      const std::string next = argv[i + 1];
      if (next.rfind("--", 0) != 0) {
        cfg.set(token, argv[++i]);
        continue;
      }
    }
    throw std::invalid_argument("expected key=value, got: " +
                                std::string(argv[i]));
  }
  return cfg;
}

Config Config::from_text(const std::string& text, const TextFormat& format) {
  const std::string who = format.label.empty() ? "" : format.label + ": ";
  const std::string expected_magic =
      format.magic + " " + std::to_string(format.version);
  bool magic_seen = format.magic.empty();
  std::set<std::string> seen_sections;
  std::string section_prefix;
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    line = trim(line);
    if (line.empty()) continue;  // blank / comment-only line
    const auto at = [&] { return " (line " + std::to_string(lineno) + ")"; };
    if (!magic_seen) {
      // The magic line is not a key=value pair; check it by hand. It is
      // exactly `<magic> <integer>`: "drlsc 1.5" or "drlsc 1 x" is no
      // version 1.
      const auto gap = line.find_first_of(" \t");
      if (line.substr(0, gap) != format.magic) {
        throw std::runtime_error(who + "missing magic line (expected '" +
                                 expected_magic + "')");
      }
      const std::string digits =
          gap == std::string::npos ? "" : trim(line.substr(gap));
      const char* end = digits.data() + digits.size();
      int version = 0;
      const auto [ptr, ec] = std::from_chars(digits.data(), end, version);
      if (ec != std::errc() || digits.empty() || ptr != end) {
        throw std::runtime_error(who + "bad magic line '" + line +
                                 "' (expected '" + expected_magic + "')");
      }
      if (version != format.version) {
        throw std::runtime_error(who + "unsupported format version " +
                                 std::to_string(version));
      }
      magic_seen = true;
      continue;
    }
    // `[name]` prefixes every following key with `name.`, so blocks read
    // like INI sections.
    if (line.front() == '[') {
      const std::string name = line.substr(1, line.size() - 2);
      if (line.back() != ']' ||
          std::find(format.sections.begin(), format.sections.end(), name) ==
              format.sections.end()) {
        throw std::invalid_argument(who + "unknown section '" + line + "'" +
                                    at());
      }
      if (!seen_sections.insert(name).second) {
        throw std::invalid_argument(who + "duplicate " + line + " block" +
                                    at());
      }
      section_prefix = name + ".";
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(who + "bad config line " +
                                  std::to_string(lineno) + ": " + line);
    }
    const std::string key = section_prefix + trim(line.substr(0, eq));
    if (cfg.has(key)) {
      throw std::invalid_argument(who + "duplicate key '" + key + "'" + at());
    }
    cfg.set(key, trim(line.substr(eq + 1)));
    if (!format.magic.empty()) cfg.set_line(key, lineno);
  }
  if (!magic_seen) {
    throw std::runtime_error(who + "missing magic line (expected '" +
                             expected_magic + "')");
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set_line(const std::string& key, int line) {
  lines_[key] = line;
}

int Config::line_of(const std::string& key) const {
  auto it = lines_.find(key);
  return it == lines_.end() ? 0 : it->second;
}

std::string Config::location_suffix(const std::string& key) const {
  const int line = line_of(key);
  return line > 0 ? " (line " + std::to_string(line) + ")" : std::string();
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get(const std::string& key,
                        const std::string& fallback) const {
  auto v = raw(key);
  return v ? *v : fallback;
}

long long Config::get(const std::string& key, long long fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  // Strict full-string parse: unlike std::stoll, trailing garbage
  // ("8x", "1.5") and out-of-range magnitudes are hard errors, so a typo
  // in a flag or config file can't silently truncate to a valid number.
  const std::string& s = *v;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + s +
                                " (out of range)");
  }
  if (ec != std::errc() || first == last) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + s);
  }
  if (ptr != last) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + s +
                                " (trailing characters)");
  }
  return value;
}

int Config::get(const std::string& key, int fallback) const {
  const long long wide = get(key, static_cast<long long>(fallback));
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("bad integer for " + key +
                                location_suffix(key) + ": " + *raw(key) +
                                " (out of range)");
  }
  return static_cast<int>(wide);
}

double Config::get(const std::string& key, double fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  // Strict full-string parse; "inf" stays accepted (open-ended tenant stop
  // times serialize as inf) but NaN never names a meaningful knob value.
  const std::string& s = *v;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s +
                                " (out of range)");
  }
  if (ec != std::errc() || first == last) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s);
  }
  if (ptr != last) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s +
                                " (trailing characters)");
  }
  if (std::isnan(value)) {
    throw std::invalid_argument("bad number for " + key +
                                location_suffix(key) + ": " + s +
                                " (NaN is never a valid knob value)");
  }
  return value;
}

bool Config::get(const std::string& key, bool fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::invalid_argument("bad boolean for " + key +
                              location_suffix(key) + ": " + *v);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

void TrackedConfig::reject_unknown(const std::string& label) const {
  for (const std::string& key : cfg_.keys()) {
    if (!read_.count(key)) {
      throw std::invalid_argument(label + ": unknown key '" + key + "'" +
                                  cfg_.location_suffix(key));
    }
  }
}

std::optional<TextFile> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  const auto slash = path.find_last_of('/');
  return TextFile{ss.str(),
                  slash == std::string::npos ? "" : path.substr(0, slash)};
}

}  // namespace drlnoc::util
