#include "src/obs/bench_compare.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/obs/bench_report.h"
#include "src/obs/json_export.h"

namespace arpanet::obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader. The repo deliberately has no external dependencies,
// and the bench documents are machine-written by obs::BenchReport, so a
// small recursive-descent parser over the full JSON grammar (minus \u
// escapes) is all that is needed.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  double number = 0.0;
  std::string_view digits;  ///< a number's text, a view of the document
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered; bench documents never repeat keys.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member `key`, or a null value when there is none. Reading a field
  /// of the wrong type gives its default: 0, "" or an empty array.
  [[nodiscard]] const JsonValue& at(std::string_view key) const {
    static const JsonValue kNull;
    for (const auto& [k, v] : object) {
      if (k == key) return v;
    }
    return kNull;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_{text} {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{' || c == '[') return container(c == '{');
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = raw_string();
      return v;
    }
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.compare(pos_, word.size(), word) == 0) {
        pos_ += word.size();
        v.type =
            word == "null" ? JsonValue::Type::kNull : JsonValue::Type::kBool;
        return v;
      }
    }
    return number();
  }

  /// An object or an array: the same comma-separated walk, with a key
  /// before each object member.
  JsonValue container(bool is_object) {
    const char close = is_object ? '}' : ']';
    ++pos_;
    JsonValue v;
    v.type = is_object ? JsonValue::Type::kObject : JsonValue::Type::kArray;
    skip_ws();
    if (consume(close)) return v;
    do {
      if (is_object) {
        skip_ws();
        std::string key = raw_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), value());
      } else {
        v.array.push_back(value());
      }
      skip_ws();
    } while (consume(','));
    expect(close);
    return v;
  }

  std::string raw_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      // \uXXXX is left out: no bench string holds a control character.
      constexpr std::string_view kEscaped = "\"\\/nbfrt";
      constexpr std::string_view kDecoded = "\"\\/\n\b\f\r\t";
      const std::size_t k = kEscaped.find(text_[pos_++]);
      if (k == std::string_view::npos) fail("unsupported escape");
      out.push_back(kDecoded[k]);
    }
  }

  JsonValue number() {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = d;
    v.digits = std::string_view{start, static_cast<std::size_t>(end - start)};
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// One cell array of a bench document. All sections compare alike; a row
/// says only how to name a cell and how to print its rate.
struct Section {
  const char* key;           ///< the document's array of cells
  const char* name_keys[2];  ///< string fields naming a cell, joined by '/'
  const char* label;         ///< prefix of the cell's name in messages
  const char* unit;          ///< unit of the cell's rate in the text report
  /// One line that stands for all of a cell's work drift; nullptr reports
  /// each drifted field on its own line.
  const char* drift;
};

constexpr Section kSections[] = {
    {"scenarios", {"topology", "metric"}, "", "ev/s", nullptr},
    {"micro", {"name", nullptr}, "micro ", "ops/s",
     "deterministic fields drifted (ops/checksum); the workload or pop order "
     "changed — regenerate the baseline if intentional"},
    {"topo", {"name", nullptr}, "topo ", "spf-nodes/s",
     "deterministic fields drifted (graph/SPF checksums or incremental "
     "counters); the generator or SPF changed — regenerate the baseline if "
     "intentional"},
};

/// A cell's numeric leaves as (path, value) pairs, e.g. ("spf.full", 6).
using Leaves = std::vector<std::pair<std::string, const JsonValue*>>;

/// Flattens the numeric leaves the work diff covers, in document order:
/// everything but wall time and rates, and alloc_guard.bytes_peak only
/// when `exact_build` (see compare_bench_reports). Comparing the flattened
/// forms keeps the checker correct as the report schema grows fields.
void flatten_work(const JsonValue& v, const std::string& prefix,
                  bool exact_build, Leaves& out) {
  if (v.type == JsonValue::Type::kNumber) {
    const FieldClass cls = bench_field_class(prefix);
    if (cls != FieldClass::kWallTime && cls != FieldClass::kRate &&
        (exact_build || cls != FieldClass::kBuildDependent)) {
      out.emplace_back(prefix, &v);
    }
    return;
  }
  if (v.type == JsonValue::Type::kObject) {
    for (const auto& [k, child] : v.object) {
      flatten_work(child, prefix.empty() ? k : prefix + "." + k, exact_build,
                   out);
    }
  }
}

/// The cell's throughput field: its top-level FieldClass::kRate member.
std::string rate_field(const JsonValue& cell) {
  for (const auto& [k, v] : cell.object) {
    if (bench_field_class(k) == FieldClass::kRate) return k;
  }
  return "";
}

JsonValue parse_report(const std::string& json, const char* which) {
  JsonValue doc;
  try {
    doc = JsonParser{json}.parse();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string{which} + " document: " + e.what());
  }
  if (doc.type != JsonValue::Type::kObject) {
    throw std::invalid_argument(std::string{which} + " document: not an object");
  }
  if (doc.at("schema").string != kBenchSchemaName ||
      static_cast<int>(doc.at("schema_version").number) !=
          kBenchSchemaVersion) {
    throw std::invalid_argument(std::string{which} +
                                " document: not an arpanet-bench-metrics v" +
                                std::to_string(kBenchSchemaVersion) +
                                " document");
  }
  return doc;
}

std::string cell_name(const Section& s, const JsonValue& cell) {
  std::string name = cell.at(s.name_keys[0]).string;
  if (s.name_keys[1] != nullptr) {
    name += "/" + cell.at(s.name_keys[1]).string;
  }
  return name;
}

/// Finds a cell by name in a bench document; used to look up rolling
/// rates, where cell order is not guaranteed to match.
const JsonValue* find_cell(const JsonValue& doc, const Section& s,
                           const std::string& name) {
  for (const JsonValue& c : doc.at(s.key).array) {
    if (cell_name(s, c) == name) return &c;
  }
  return nullptr;
}

/// Whether a document's flavor is optimized (a masked document's is 0).
bool optimized(const JsonValue& doc) {
  const BuildFlavor* f = find_build_flavor(doc.at(kBuildFlavorKey).string);
  return f != nullptr && f->optimized;
}

/// Diffs one cell's work fields. Counts drift within `work_noise`, banded
/// sim time within `rate_noise`, digests not at all. Returns one message
/// per problem.
std::vector<std::string> diff_work(const Leaves& bw, const Leaves& cw,
                                   const CompareOptions& options) {
  if (bw.size() != cw.size()) {
    return {"field set changed (" + std::to_string(bw.size()) + " vs " +
            std::to_string(cw.size()) +
            " numeric fields); regenerate the baseline"};
  }
  std::vector<std::string> drifts;
  for (std::size_t f = 0; f < bw.size(); ++f) {
    const auto& [path, b] = bw[f];
    const JsonValue& c = *cw[f].second;
    if (path != cw[f].first) {
      drifts.push_back("field '" + path + "' became '" + cw[f].first +
                       "'; regenerate the baseline");
      break;
    }
    const FieldClass cls = bench_field_class(path);
    const bool banded = cls == FieldClass::kBandedSimTime;
    const double bv = b->number;
    const double cv = c.number;
    const double noise = banded ? options.rate_noise : options.work_noise;
    // A digest compares by its digits: a double keeps 53 of its 64 bits.
    if (cls == FieldClass::kDigest
            ? b->digits != c.digits
            : std::abs(cv - bv) > noise * std::max(std::abs(bv), 1.0)) {
      drifts.push_back(
          path + " " + json_double(bv) + " -> " + json_double(cv) +
          (banded ? " (outside the " + json_double(options.rate_noise) +
                        " noise band)"
                  : " (deterministic work drifted; the simulation changed)"));
    }
  }
  return drifts;
}

}  // namespace

CompareReport compare_bench_reports(
    const std::string& baseline_json, const std::string& current_json,
    const CompareOptions& options,
    const std::optional<std::string>& rates_json) {
  const JsonValue base = parse_report(baseline_json, "baseline");
  const JsonValue cur = parse_report(current_json, "current");
  std::optional<JsonValue> rates;
  if (rates_json) rates = parse_report(*rates_json, "rates");

  CompareReport report;
  auto violate = [&report](const std::string& v) {
    report.violations.push_back(v);
  };

  const std::string& battery = base.at("battery").string;
  if (battery != cur.at("battery").string) {
    violate("battery mismatch: baseline '" + battery + "' vs current '" +
            cur.at("battery").string + "'");
    return report;
  }

  // Rolling mode trends wall times against a previous run's artifact, so
  // that artifact must come from the same build flavor — an LTO run
  // compared against plain rates (or vice versa) would alias the flavor
  // switch as a perf change. The committed baseline is exempt: it is
  // masked, and its deterministic fields are flavor-independent.
  if (rates) {
    const std::string& cur_flavor = cur.at(kBuildFlavorKey).string;
    const std::string& rates_flavor = rates->at(kBuildFlavorKey).string;
    if (!cur_flavor.empty() && !rates_flavor.empty() &&
        cur_flavor != rates_flavor) {
      violate("build flavor mismatch: rates artifact is '" + rates_flavor +
              "' but current is '" + cur_flavor +
              "' — rolling rate baselines must not mix flavors");
      return report;
    }
  }

  const bool exact_build = optimized(base) && optimized(cur);
  for (const Section& s : kSections) {
    const std::vector<JsonValue>& base_cells = base.at(s.key).array;
    const std::vector<JsonValue>& cur_cells = cur.at(s.key).array;
    if (base_cells.size() != cur_cells.size()) {
      violate(std::string{s.label} + "cell count mismatch: baseline " +
              std::to_string(base_cells.size()) + " vs current " +
              std::to_string(cur_cells.size()));
      continue;
    }
    for (std::size_t i = 0; i < base_cells.size(); ++i) {
      const JsonValue& b = base_cells[i];
      const JsonValue& c = cur_cells[i];
      CellDelta delta{.section = s.key, .name = cell_name(s, b)};
      const std::string name = s.label + delta.name;
      if (delta.name != cell_name(s, c)) {
        violate(s.label + std::string{"cell "} + std::to_string(i) +
                ": baseline is " + name + " but current is " + s.label +
                cell_name(s, c));
        continue;
      }

      Leaves bw;
      Leaves cw;
      flatten_work(b, "", exact_build, bw);
      flatten_work(c, "", exact_build, cw);
      const std::vector<std::string> drifts = diff_work(bw, cw, options);
      if (s.drift != nullptr && !drifts.empty()) {
        violate(name + ": " + s.drift);
      } else {
        for (const std::string& d : drifts) violate(name + ": " + d);
      }

      // Throughput: machine-dependent, checked against the noise band. In
      // rolling mode the band anchors to the rates artifact when it
      // carries this cell.
      const std::string rate = rate_field(b);
      delta.baseline_rate = b.at(rate).number;
      delta.current_rate = c.at(rate).number;
      const JsonValue* r = rates ? find_cell(*rates, s, delta.name) : nullptr;
      if (r != nullptr && r->at(rate).number > 0.0) {
        delta.baseline_rate = r->at(rate).number;
        delta.rate_from_artifact = true;
      }
      if (delta.baseline_rate > 0.0) {
        delta.ratio = delta.current_rate / delta.baseline_rate;
        if (delta.ratio < 1.0 - options.rate_noise) {
          violate(name + ": " + rate + " " +
                  json_double(delta.baseline_rate) + " -> " +
                  json_double(delta.current_rate) + " (" +
                  json_double(delta.ratio) + "x, below the " +
                  json_double(1.0 - options.rate_noise) + " floor)");
        }
      }
      report.cells.push_back(std::move(delta));
    }
  }
  return report;
}

void CompareReport::write_text(std::ostream& os) const {
  for (const Section& s : kSections) {
    for (const CellDelta& d : cells) {
      if (d.section != s.key) continue;
      os << s.label << d.name << ": " << json_double(d.baseline_rate) << " -> "
         << json_double(d.current_rate) << " " << s.unit;
      if (d.ratio > 0.0) os << " (" << json_double(d.ratio) << "x)";
      if (d.rate_from_artifact) os << " [rolling]";
      os << "\n";
    }
  }
  if (violations.empty()) {
    os << "bench_compare: OK (" << cells.size() << " cells)\n";
  } else {
    for (const std::string& v : violations) os << "VIOLATION: " << v << "\n";
  }
}

}  // namespace arpanet::obs
