// Minimal key=value configuration store. Examples and bench binaries parse
// command-line overrides ("key=value" tokens) into this, so every experiment
// is reproducible from its printed parameter block. The versioned text
// formats (`.drlsc`, `.drlfs`, `.drlfr`) share one line scanner,
// Config::from_text, and one read-tracking accessor, TrackedConfig; their
// common grammar is specified in docs/FORMATS.md.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace drlnoc::util {

/// One versioned `key = value` text format, as Config::from_text reads it.
/// The default (no magic) is header-less text.
struct TextFormat {
  std::string label;  ///< error prefix ("scenario"); empty = none
  std::string magic;  ///< first-line magic word; empty = no magic line
  int version = 0;    ///< the one version the magic line must carry
  std::vector<std::string> sections;  ///< allowed `[name]` headers
};

class Config {
 public:
  Config() = default;

  /// Parses tokens of the form "key=value"; throws std::invalid_argument on
  /// malformed tokens.
  static Config from_args(int argc, const char* const* argv);
  /// Scans newline-separated `key = value` text in `format`: '#' starts a
  /// comment, blank lines are skipped, and keys and values are trimmed of
  /// spaces, tabs and '\r'. A format with a magic word wants
  /// exactly `<magic> <version>` as the first non-comment line
  /// (std::runtime_error otherwise), and its keys record their 1-based
  /// source lines. `[name]` headers among `format.sections` prefix the keys
  /// after them with `name.`; an unknown or repeated section, a repeated
  /// key (compared with its section prefix) and a line without `=` throw
  /// std::invalid_argument citing the line.
  static Config from_text(const std::string& text,
                          const TextFormat& format = {});

  void set(const std::string& key, const std::string& value);

  /// Records the 1-based source line `key` came from (0 = none), so the
  /// typed getters below can cite the offending line alongside the key
  /// name; configs built from argv carry no lines.
  void set_line(const std::string& key, int line);
  /// The recorded source line of `key`, or 0 when unknown.
  int line_of(const std::string& key) const;
  /// " (line N)" when a source line is recorded for `key`, else "".
  std::string location_suffix(const std::string& key) const;

  bool has(const std::string& key) const;
  std::optional<std::string> raw(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  long long get(const std::string& key, long long fallback) const;
  int get(const std::string& key, int fallback) const;
  double get(const std::string& key, double fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// Keys in insertion-independent (sorted) order, for printing.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, int> lines_;
};

/// Read-only view of a Config that records every key it serves, so a
/// format reader can reject the keys nothing read (typically typos).
class TrackedConfig {
 public:
  explicit TrackedConfig(const Config& cfg) : cfg_(cfg) {}

  bool has(const std::string& key) const {
    if (!cfg_.has(key)) return false;
    read_.insert(key);
    return true;
  }
  template <typename T>
  T get(const std::string& key, T fallback) const {
    has(key);
    return cfg_.get(key, fallback);
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    return get<std::string>(key, fallback);
  }
  std::string location_suffix(const std::string& key) const {
    return cfg_.location_suffix(key);
  }

  /// Throws std::invalid_argument "<label>: unknown key 'K' (line N)" for
  /// the first key (in sorted order) that nothing has read.
  void reject_unknown(const std::string& label) const;

 private:
  const Config& cfg_;
  mutable std::set<std::string> read_;
};

/// A whole text file and the directory its relative paths resolve against.
struct TextFile {
  std::string text;
  std::string dir;  ///< "" when the path names no directory
};

/// Reads `path` whole, byte for byte; std::nullopt when it cannot be opened.
std::optional<TextFile> read_text_file(const std::string& path);

/// Reads `path` and returns `parse(text, dir)`. An unreadable file throws
/// std::runtime_error "<label>: cannot open <path>"; an error from `parse`
/// is rethrown as std::invalid_argument "<path>: <what>".
template <typename Parse>
auto parse_text_file(const std::string& path, const std::string& label,
                     Parse&& parse) {
  const std::optional<TextFile> file = read_text_file(path);
  if (!file) throw std::runtime_error(label + ": cannot open " + path);
  try {
    return parse(file->text, file->dir);
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace drlnoc::util
