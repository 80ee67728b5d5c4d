#include "src/obs/bench_compare.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/obs/bench_report.h"

namespace arpanet::obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader. The repo deliberately has no external dependencies,
// and the bench documents are machine-written by obs::BenchReport, so a
// small recursive-descent parser over the full JSON grammar (minus \u
// escapes, which the writer never emits) is all that is needed.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered; bench documents never repeat keys.
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
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

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't': {
        literal("true");
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        literal("false");
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        return v;
      }
      case 'n':
        literal("null");
        return {};
      default:
        return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key = raw_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    v.string = raw_string();
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
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        default: fail("unsupported escape");  // \uXXXX never written here
      }
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
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Fields derived from host wall time: excluded from the deterministic-work
/// diff and handled by the noise-band rate check instead. Stability's
/// reconverge_sec is sim time (deterministic per config) but shifts with
/// any change to fault/flood phasing, so the trend gate grants it the same
/// band instead of exact equality (the golden smoke test still pins it
/// byte-exactly for a fixed build).
bool is_wall_time_field(const std::string& path) {
  return path == "wall_sec" || path == "events_per_sec" ||
         path == "ops_per_sec" || path == "build_sec" || path == "spf_sec" ||
         path == "spf_nodes_per_sec" || path == "stability.reconverge_sec" ||
         path == "speedup";
}

/// Flattens every numeric leaf of a cell into ("spf.full", value) pairs, in
/// document order. Comparing the flattened forms keeps the checker correct
/// as the report schema grows fields. alloc_guard.bytes_peak is kept only
/// when `exact_bytes_peak` is set (see compare_parsed).
void flatten_numbers(const JsonValue& v, const std::string& prefix,
                     bool exact_bytes_peak,
                     std::vector<std::pair<std::string, double>>& out) {
  if (v.type == JsonValue::Type::kNumber) {
    if (!is_wall_time_field(prefix) &&
        (exact_bytes_peak || prefix != "alloc_guard.bytes_peak")) {
      out.emplace_back(prefix, v.number);
    }
    return;
  }
  if (v.type == JsonValue::Type::kObject) {
    for (const auto& [k, child] : v.object) {
      flatten_numbers(child, prefix.empty() ? k : prefix + "." + k,
                      exact_bytes_peak, out);
    }
  }
}

double number_field(const JsonValue& cell, const std::string& key) {
  const JsonValue* f = cell.find(key);
  return (f != nullptr && f->type == JsonValue::Type::kNumber) ? f->number : 0.0;
}

std::string string_field(const JsonValue& cell, const std::string& key) {
  const JsonValue* f = cell.find(key);
  return (f != nullptr && f->type == JsonValue::Type::kString) ? f->string : "";
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
  if (string_field(doc, "schema") != kBenchSchemaName ||
      static_cast<int>(number_field(doc, "schema_version")) !=
          kBenchSchemaVersion) {
    throw std::invalid_argument(std::string{which} +
                                " document: not an arpanet-bench-metrics v" +
                                std::to_string(kBenchSchemaVersion) +
                                " document");
  }
  return doc;
}

std::string cell_name(const JsonValue& cell) {
  return string_field(cell, "topology") + "/" + string_field(cell, "metric");
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

/// Finds a scenario cell by (topology, metric) in a bench document; used to
/// look up rolling rates, where cell order is not guaranteed to match.
const JsonValue* find_scenario(const JsonValue& doc,
                               const std::string& topology,
                               const std::string& metric) {
  const JsonValue* arr = doc.find("scenarios");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) return nullptr;
  for (const JsonValue& c : arr->array) {
    if (string_field(c, "topology") == topology &&
        string_field(c, "metric") == metric) {
      return &c;
    }
  }
  return nullptr;
}

/// Finds a microbenchmark cell by name in a bench document.
const JsonValue* find_micro(const JsonValue& doc, const std::string& name) {
  const JsonValue* arr = doc.find("micro");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) return nullptr;
  for (const JsonValue& c : arr->array) {
    if (string_field(c, "name") == name) return &c;
  }
  return nullptr;
}

/// Finds a large-topology cell by name in a bench document.
const JsonValue* find_topo(const JsonValue& doc, const std::string& name) {
  const JsonValue* arr = doc.find("topo");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) return nullptr;
  for (const JsonValue& c : arr->array) {
    if (string_field(c, "name") == name) return &c;
  }
  return nullptr;
}

CompareReport compare_parsed(const JsonValue& base, const JsonValue& cur,
                             const JsonValue* rates,
                             const CompareOptions& options) {
  CompareReport report;
  auto violate = [&report](const std::string& v) {
    report.violations.push_back(v);
  };

  if (string_field(base, "battery") != string_field(cur, "battery")) {
    violate("battery mismatch: baseline '" + string_field(base, "battery") +
            "' vs current '" + string_field(cur, "battery") + "'");
    return report;
  }

  // Rolling mode trends wall times against a previous run's artifact, so
  // that artifact must come from the same optimization flavor — an LTO run
  // compared against plain rates (or vice versa) would alias the flavor
  // switch as a perf change. The committed baseline is exempt: it is
  // masked, and its deterministic fields are flavor-independent.
  if (rates != nullptr) {
    const std::string cur_flavor = string_field(cur, "build_flavor");
    const std::string rates_flavor = string_field(*rates, "build_flavor");
    if (!cur_flavor.empty() && !rates_flavor.empty() &&
        cur_flavor != rates_flavor) {
      violate("build flavor mismatch: rates artifact is '" + rates_flavor +
              "' but current is '" + cur_flavor +
              "' — rolling rate baselines must not mix flavors");
      return report;
    }
  }

  // A plain or LTO build's measurement window allocates nothing, so
  // alloc_guard.bytes_peak is exact work there (0) and diffs like any other
  // count. Any other flavor — a masked document carries 0 — lets the
  // allocator and instrumentation of the build show through, so it is
  // skipped.
  const auto optimized = [](const JsonValue& doc) {
    const std::string flavor = string_field(doc, "build_flavor");
    return flavor == "plain" || flavor == "lto";
  };
  const bool exact_bytes_peak = optimized(base) && optimized(cur);

  const JsonValue* base_cells = base.find("scenarios");
  const JsonValue* cur_cells = cur.find("scenarios");
  if (base_cells == nullptr || cur_cells == nullptr ||
      base_cells->array.size() != cur_cells->array.size()) {
    violate("cell count mismatch: baseline " +
            std::to_string(base_cells != nullptr ? base_cells->array.size() : 0) +
            " vs current " +
            std::to_string(cur_cells != nullptr ? cur_cells->array.size() : 0));
    return report;
  }

  for (std::size_t i = 0; i < base_cells->array.size(); ++i) {
    const JsonValue& b = base_cells->array[i];
    const JsonValue& c = cur_cells->array[i];
    const std::string name = cell_name(b);
    if (name != cell_name(c)) {
      violate("cell " + std::to_string(i) + ": baseline is " + name +
              " but current is " + cell_name(c));
      continue;
    }

    // Deterministic work: identical field sets, values within work_noise
    // (exactly equal by default).
    std::vector<std::pair<std::string, double>> bw;
    std::vector<std::pair<std::string, double>> cw;
    flatten_numbers(b, "", exact_bytes_peak, bw);
    flatten_numbers(c, "", exact_bytes_peak, cw);
    if (bw.size() != cw.size()) {
      violate(name + ": field set changed (" + std::to_string(bw.size()) +
              " vs " + std::to_string(cw.size()) +
              " numeric fields); regenerate the baseline");
      continue;
    }
    for (std::size_t f = 0; f < bw.size(); ++f) {
      if (bw[f].first != cw[f].first) {
        violate(name + ": field '" + bw[f].first + "' became '" +
                cw[f].first + "'; regenerate the baseline");
        break;
      }
      const double bv = bw[f].second;
      const double cv = cw[f].second;
      const double tol = options.work_noise * std::max(std::abs(bv), 1.0);
      if (std::abs(cv - bv) > tol) {
        violate(name + ": " + bw[f].first + " " + fmt(bv) + " -> " + fmt(cv) +
                " (deterministic work drifted; the simulation changed)");
      }
    }

    // Stability counts were diffed exactly above with the other numeric
    // leaves; the reconvergence time gets the noise band (it is sim time,
    // but any legitimate re-phasing of floods shifts it slightly).
    const JsonValue* base_stab = b.find("stability");
    const JsonValue* cur_stab = c.find("stability");
    if (base_stab != nullptr && cur_stab != nullptr) {
      const double br = number_field(*base_stab, "reconverge_sec");
      const double cr = number_field(*cur_stab, "reconverge_sec");
      const double tol = options.rate_noise * std::max(std::abs(br), 1.0);
      if (std::abs(cr - br) > tol) {
        violate(name + ": stability.reconverge_sec " + fmt(br) + " -> " +
                fmt(cr) + " (outside the " + fmt(options.rate_noise) +
                " noise band)");
      }
    }

    // Throughput: machine-dependent, checked against the noise band. In
    // rolling mode the band anchors to the rates artifact when it carries
    // this cell.
    CellDelta delta;
    delta.topology = string_field(b, "topology");
    delta.metric = string_field(b, "metric");
    delta.baseline_events_per_sec = number_field(b, "events_per_sec");
    delta.current_events_per_sec = number_field(c, "events_per_sec");
    if (rates != nullptr) {
      const JsonValue* r = find_scenario(*rates, delta.topology, delta.metric);
      if (r != nullptr && number_field(*r, "events_per_sec") > 0.0) {
        delta.baseline_events_per_sec = number_field(*r, "events_per_sec");
        delta.rate_from_artifact = true;
      }
    }
    if (delta.baseline_events_per_sec > 0.0) {
      delta.ratio = delta.current_events_per_sec / delta.baseline_events_per_sec;
      if (delta.ratio < 1.0 - options.rate_noise) {
        violate(name + ": events_per_sec " +
                fmt(delta.baseline_events_per_sec) + " -> " +
                fmt(delta.current_events_per_sec) + " (" + fmt(delta.ratio) +
                "x, below the " + fmt(1.0 - options.rate_noise) + " floor)");
      }
    }
    report.cells.push_back(std::move(delta));
  }

  // Microbenchmark cells: same split — deterministic fields (ops, checksum)
  // diff exactly, ops_per_sec goes through the noise band.
  const JsonValue* base_micro = base.find("micro");
  const JsonValue* cur_micro = cur.find("micro");
  const std::size_t bn = base_micro != nullptr ? base_micro->array.size() : 0;
  const std::size_t cn = cur_micro != nullptr ? cur_micro->array.size() : 0;
  if (bn != cn) {
    violate("micro cell count mismatch: baseline " + std::to_string(bn) +
            " vs current " + std::to_string(cn));
    return report;
  }
  for (std::size_t i = 0; i < bn; ++i) {
    const JsonValue& b = base_micro->array[i];
    const JsonValue& c = cur_micro->array[i];
    const std::string name = "micro " + string_field(b, "name");
    if (string_field(b, "name") != string_field(c, "name")) {
      violate("micro cell " + std::to_string(i) + ": baseline is " + name +
              " but current is micro " + string_field(c, "name"));
      continue;
    }
    std::vector<std::pair<std::string, double>> bw;
    std::vector<std::pair<std::string, double>> cw;
    flatten_numbers(b, "", exact_bytes_peak, bw);
    flatten_numbers(c, "", exact_bytes_peak, cw);
    if (bw != cw) {
      violate(name + ": deterministic fields drifted (ops/checksum); the "
              "workload or pop order changed — regenerate the baseline if "
              "intentional");
    }
    CellDelta delta;
    delta.topology = string_field(b, "name");
    delta.metric = "micro";
    delta.baseline_events_per_sec = number_field(b, "ops_per_sec");
    delta.current_events_per_sec = number_field(c, "ops_per_sec");
    if (rates != nullptr) {
      const JsonValue* r = find_micro(*rates, delta.topology);
      if (r != nullptr && number_field(*r, "ops_per_sec") > 0.0) {
        delta.baseline_events_per_sec = number_field(*r, "ops_per_sec");
        delta.rate_from_artifact = true;
      }
    }
    if (delta.baseline_events_per_sec > 0.0) {
      delta.ratio = delta.current_events_per_sec / delta.baseline_events_per_sec;
      if (delta.ratio < 1.0 - options.rate_noise) {
        violate(name + ": ops_per_sec " + fmt(delta.baseline_events_per_sec) +
                " -> " + fmt(delta.current_events_per_sec) + " (" +
                fmt(delta.ratio) + "x, below the " +
                fmt(1.0 - options.rate_noise) + " floor)");
      }
    }
    report.micro.push_back(std::move(delta));
  }

  // Large-topology cells: graph/SPF checksums and the incremental work
  // profile diff exactly; spf_nodes_per_sec goes through the noise band.
  const JsonValue* base_topo = base.find("topo");
  const JsonValue* cur_topo = cur.find("topo");
  const std::size_t btn = base_topo != nullptr ? base_topo->array.size() : 0;
  const std::size_t ctn = cur_topo != nullptr ? cur_topo->array.size() : 0;
  if (btn != ctn) {
    violate("topo cell count mismatch: baseline " + std::to_string(btn) +
            " vs current " + std::to_string(ctn));
    return report;
  }
  for (std::size_t i = 0; i < btn; ++i) {
    const JsonValue& b = base_topo->array[i];
    const JsonValue& c = cur_topo->array[i];
    const std::string name = "topo " + string_field(b, "name");
    if (string_field(b, "name") != string_field(c, "name")) {
      violate("topo cell " + std::to_string(i) + ": baseline is " + name +
              " but current is topo " + string_field(c, "name"));
      continue;
    }
    std::vector<std::pair<std::string, double>> bw;
    std::vector<std::pair<std::string, double>> cw;
    flatten_numbers(b, "", exact_bytes_peak, bw);
    flatten_numbers(c, "", exact_bytes_peak, cw);
    if (bw != cw) {
      violate(name + ": deterministic fields drifted (graph/SPF checksums or "
              "incremental counters); the generator or SPF changed — "
              "regenerate the baseline if intentional");
    }
    CellDelta delta;
    delta.topology = string_field(b, "name");
    delta.metric = "topo";
    delta.baseline_events_per_sec = number_field(b, "spf_nodes_per_sec");
    delta.current_events_per_sec = number_field(c, "spf_nodes_per_sec");
    if (rates != nullptr) {
      const JsonValue* r = find_topo(*rates, delta.topology);
      if (r != nullptr && number_field(*r, "spf_nodes_per_sec") > 0.0) {
        delta.baseline_events_per_sec = number_field(*r, "spf_nodes_per_sec");
        delta.rate_from_artifact = true;
      }
    }
    if (delta.baseline_events_per_sec > 0.0) {
      delta.ratio = delta.current_events_per_sec / delta.baseline_events_per_sec;
      if (delta.ratio < 1.0 - options.rate_noise) {
        violate(name + ": spf_nodes_per_sec " +
                fmt(delta.baseline_events_per_sec) + " -> " +
                fmt(delta.current_events_per_sec) + " (" + fmt(delta.ratio) +
                "x, below the " + fmt(1.0 - options.rate_noise) + " floor)");
      }
    }
    report.topo.push_back(std::move(delta));
  }
  return report;
}

}  // namespace

CompareReport compare_bench_reports(const std::string& baseline_json,
                                    const std::string& current_json,
                                    const CompareOptions& options) {
  const JsonValue base = parse_report(baseline_json, "baseline");
  const JsonValue cur = parse_report(current_json, "current");
  return compare_parsed(base, cur, nullptr, options);
}

CompareReport compare_bench_reports(const std::string& baseline_json,
                                    const std::string& current_json,
                                    const std::string& rates_json,
                                    const CompareOptions& options) {
  const JsonValue base = parse_report(baseline_json, "baseline");
  const JsonValue cur = parse_report(current_json, "current");
  const JsonValue rates = parse_report(rates_json, "rates");
  return compare_parsed(base, cur, &rates, options);
}

void CompareReport::write_text(std::ostream& os) const {
  for (const CellDelta& d : cells) {
    os << d.topology << "/" << d.metric << ": " << fmt(d.baseline_events_per_sec)
       << " -> " << fmt(d.current_events_per_sec) << " ev/s";
    if (d.ratio > 0.0) os << " (" << fmt(d.ratio) << "x)";
    if (d.rate_from_artifact) os << " [rolling]";
    os << "\n";
  }
  for (const CellDelta& d : micro) {
    os << "micro " << d.topology << ": " << fmt(d.baseline_events_per_sec)
       << " -> " << fmt(d.current_events_per_sec) << " ops/s";
    if (d.ratio > 0.0) os << " (" << fmt(d.ratio) << "x)";
    if (d.rate_from_artifact) os << " [rolling]";
    os << "\n";
  }
  for (const CellDelta& d : topo) {
    os << "topo " << d.topology << ": " << fmt(d.baseline_events_per_sec)
       << " -> " << fmt(d.current_events_per_sec) << " spf-nodes/s";
    if (d.ratio > 0.0) os << " (" << fmt(d.ratio) << "x)";
    if (d.rate_from_artifact) os << " [rolling]";
    os << "\n";
  }
  if (violations.empty()) {
    os << "bench_compare: OK ("
       << cells.size() + micro.size() + topo.size()
       << " cells)\n";
  } else {
    for (const std::string& v : violations) os << "VIOLATION: " << v << "\n";
  }
}

}  // namespace arpanet::obs
