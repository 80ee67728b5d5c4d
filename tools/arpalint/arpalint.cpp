// arpalint: the project's in-tree static analyzer.
//
// A dependency-free lexical checker for the invariants this codebase's
// performance and reproducibility story rests on — properties clang-tidy
// has no checks for because they are project policy, not C++ hygiene:
//
//   hot-path-alloc   no allocating constructs inside ARPALINT-HOTPATH
//                    annotated regions (the simulator's per-event paths);
//                    util/alloc_guard.h is the runtime complement.
//   determinism      no wall-clock, no raw std random engines, no
//                    iteration over unordered containers, no pointer-keyed
//                    ordered containers under src/ — a seed must reproduce
//                    a run bit-for-bit (util/rng.h is the one RNG).
//   layer-dag        #include edges respect the subsystem DAG
//                    util -> core/stats -> net -> metrics -> routing ->
//                    traffic -> sim -> analysis/obs -> exp, with no
//                    include cycles.
//   check-macros     raw assert() is banned in src/ in favor of
//                    ARPA_CHECK/ARPA_DCHECK (src/util/check.h).
//   directive        the annotations themselves are well-formed (known
//                    rule names, non-empty reasons, balanced regions).
//
// Annotations (in comments):
//   // ARPALINT-HOTPATH                  rest of this file is a hot region
//   // ARPALINT-HOTPATH-BEGIN ... // ARPALINT-HOTPATH-END
//   // ARPALINT-ALLOW(rule): reason      suppress `rule` on this line and
//                                        the next one
//   // ARPALINT-NOALLOC                  on a member function's declaration
//                                        (its line or the line before):
//                                        calls to that name in this file
//                                        are not hot-path-alloc findings,
//                                        so a member that cannot allocate
//                                        may be called push, insert, ...
//   // ARPALINT-LAYER(name): reason      this file belongs to layer `name`
//                                        for the DAG check (both as an
//                                        includer and as a target)
//
// The scanner is lexical, not semantic: comments and string/char literals
// are stripped (with raw-string awareness) before matching, so it cannot
// be fooled by banned names in text, but it also cannot see through
// indirection — a helper that allocates is invisible at its call site.
// That is by design: the static rule catches the direct offenders and
// documents intent; util::AllocGuard measures the runtime truth.
//
// Usage: arpalint [--root=DIR] [--json[=PATH]] [dir...]
//   Scans DIR-relative directories (default: src tools tests) for
//   .h/.hpp/.cpp/.cc files, skipping lint_fixtures/, .git/ and build*/
//   components. Exit 0 clean, 1 findings, 2 usage/IO error. Output —
//   both text and JSON — is byte-deterministic: findings are sorted by
//   (file, line, rule, message) and carry no timestamps or host state.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace arpalint {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string file;  // root-relative, forward slashes
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

const std::set<std::string>& known_rules() {
  static const std::set<std::string> kRules{
      "hot-path-alloc", "determinism", "layer-dag", "check-macros",
      "directive"};
  return kRules;
}

// ---------------------------------------------------------------------------
// Layer model

int layer_rank(std::string_view layer) {
  static const std::map<std::string, int, std::less<>> kRanks{
      {"util", 0},    {"core", 1},    {"stats", 1}, {"net", 2},
      {"metrics", 3}, {"routing", 4}, {"traffic", 5}, {"sim", 6},
      {"analysis", 7}, {"obs", 7},    {"exp", 8},
  };
  const auto it = kRanks.find(layer);
  return it == kRanks.end() ? -1 : it->second;
}

// ---------------------------------------------------------------------------
// Lexical scrubbing: blank comments and string/char literals out of the
// code view (preserving line lengths so columns stay meaningful) while
// collecting each line's comment text for directive parsing.

struct ScrubbedFile {
  std::vector<std::string> raw;       // original lines
  std::vector<std::string> code;      // literals/comments blanked
  std::vector<std::string> comments;  // concatenated comment text per line
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

ScrubbedFile scrub(const std::vector<std::string>& lines) {
  ScrubbedFile out;
  out.raw = lines;
  out.code.reserve(lines.size());
  out.comments.resize(lines.size());

  enum class State { kNormal, kBlockComment, kRawString };
  State state = State::kNormal;
  std::string raw_delim;  // for kRawString: the ")delim" terminator

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    std::string code(line.size(), ' ');
    std::string& comment = out.comments[li];
    std::size_t i = 0;
    while (i < line.size()) {
      if (state == State::kBlockComment) {
        const std::size_t end = line.find("*/", i);
        if (end == std::string::npos) {
          comment.append(line, i, line.size() - i);
          i = line.size();
        } else {
          comment.append(line, i, end - i);
          i = end + 2;
          state = State::kNormal;
        }
        continue;
      }
      if (state == State::kRawString) {
        const std::size_t end = line.find(raw_delim, i);
        if (end == std::string::npos) {
          i = line.size();
        } else {
          i = end + raw_delim.size();
          code[i - 1] = '"';  // keep a token boundary where the string ended
          state = State::kNormal;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        comment.append(line, i + 2, line.size() - i - 2);
        i = line.size();
        continue;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        state = State::kBlockComment;
        i += 2;
        continue;
      }
      if (c == '"') {
        // Raw string? The opening quote follows an R (possibly u8R/LR/uR).
        if (i > 0 && line[i - 1] == 'R' &&
            (i == 1 || !ident_char(line[i - 1 - 1]) || line[i - 2] == '8' ||
             line[i - 2] == 'u' || line[i - 2] == 'L' || line[i - 2] == 'U')) {
          const std::size_t paren = line.find('(', i + 1);
          if (paren != std::string::npos && paren - i - 1 <= 16) {
            raw_delim = ")" + line.substr(i + 1, paren - i - 1) + "\"";
            code[i] = '"';
            i = paren + 1;
            const std::size_t end = line.find(raw_delim, i);
            if (end == std::string::npos) {
              state = State::kRawString;
              i = line.size();
            } else {
              i = end + raw_delim.size();
              code[i - 1] = '"';
            }
            continue;
          }
        }
        // Ordinary string literal: blank to the closing quote (or EOL).
        code[i] = '"';
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == '"') {
            code[i] = '"';
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      if (c == '\'') {
        // Digit separator (1'000) or part of an identifier context: keep.
        if (i > 0 && ident_char(line[i - 1]) &&
            !(i >= 2 && !ident_char(line[i - 2]) &&
              (line[i - 1] == 'u' || line[i - 1] == 'L' ||
               line[i - 1] == 'U'))) {
          code[i] = c;
          ++i;
          continue;
        }
        code[i] = '\'';
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == '\'') {
            code[i] = '\'';
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      code[i] = c;
      ++i;
    }
    out.code.push_back(std::move(code));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Directives

struct Directives {
  // allow[line] = rules suppressed on that line and the next one (0-based).
  std::map<std::size_t, std::set<std::string>> allow;
  std::vector<bool> hot;  // per line (0-based)
  // Member functions declared ARPALINT-NOALLOC in this file.
  std::set<std::string> noalloc;
  std::optional<std::string> layer_override;
  int layer_override_line = 0;  // 1-based, for reporting
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string{s.substr(b, e - b)};
}

/// Parses "NAME(arg): reason" directive bodies. Returns false when the text
/// at `pos` does not start the expected shape at all.
bool parse_arg_directive(std::string_view text, std::size_t pos,
                         std::size_t name_len, std::string& arg,
                         std::string& reason, std::string& problem) {
  std::size_t i = pos + name_len;
  if (i >= text.size() || text[i] != '(') {
    problem = "expected '(' after directive name";
    return true;
  }
  const std::size_t close = text.find(')', i);
  if (close == std::string_view::npos) {
    problem = "unterminated '(' in directive";
    return true;
  }
  arg = trim(text.substr(i + 1, close - i - 1));
  i = close + 1;
  if (i >= text.size() || text[i] != ':') {
    problem = "missing ': reason' after directive";
    return true;
  }
  reason = trim(text.substr(i + 1));
  if (reason.empty()) {
    problem = "empty reason after directive";
  }
  return true;
}

/// The name a declaration line declares: the identifier just before its
/// first '(' (empty if the line has none).
std::string declared_name(const std::string& code) {
  std::size_t end = code.find('(');
  if (end == std::string::npos) return "";
  while (end > 0 && code[end - 1] == ' ') --end;
  std::size_t begin = end;
  while (begin > 0 && ident_char(code[begin - 1])) --begin;
  return code.substr(begin, end - begin);
}

Directives parse_directives(const ScrubbedFile& sf, const std::string& rel,
                            std::vector<Finding>& findings) {
  Directives d;
  d.hot.assign(sf.comments.size(), false);

  bool whole_file_hot_from = false;
  std::size_t whole_file_hot_start = 0;
  constexpr std::size_t kNoRegion = static_cast<std::size_t>(-1);
  std::size_t region_begin = kNoRegion;  // open HOTPATH-BEGIN line

  for (std::size_t li = 0; li < sf.comments.size(); ++li) {
    // A directive must be the first token of its comment; prose that merely
    // mentions one (docs, this tool's own header) is not a directive.
    const std::string trimmed = trim(sf.comments[li]);
    const int line_no = static_cast<int>(li) + 1;
    if (trimmed.rfind("ARPALINT-", 0) == 0) {
      const std::string_view rest{trimmed};
      if (rest.rfind("ARPALINT-HOTPATH-BEGIN", 0) == 0) {
        if (region_begin != kNoRegion) {
          findings.push_back({rel, line_no, "directive",
                              "nested ARPALINT-HOTPATH-BEGIN (previous "
                              "region still open)"});
        } else {
          region_begin = li;
        }
      } else if (rest.rfind("ARPALINT-HOTPATH-END", 0) == 0) {
        if (region_begin == kNoRegion) {
          findings.push_back({rel, line_no, "directive",
                              "ARPALINT-HOTPATH-END without a matching "
                              "BEGIN"});
        } else {
          for (std::size_t k = region_begin; k <= li; ++k) d.hot[k] = true;
          region_begin = kNoRegion;
        }
      } else if (rest.rfind("ARPALINT-HOTPATH", 0) == 0) {
        if (!whole_file_hot_from) {
          whole_file_hot_from = true;
          whole_file_hot_start = li;
        }
      } else if (rest.rfind("ARPALINT-ALLOW", 0) == 0) {
        std::string rule, reason, problem;
        parse_arg_directive(rest, 0, 14, rule, reason, problem);
        if (!problem.empty()) {
          findings.push_back(
              {rel, line_no, "directive", "ARPALINT-ALLOW: " + problem});
        } else if (known_rules().count(rule) == 0) {
          findings.push_back({rel, line_no, "directive",
                              "ARPALINT-ALLOW names unknown rule '" + rule +
                                  "'"});
        } else {
          d.allow[li].insert(rule);
        }
      } else if (rest.rfind("ARPALINT-NOALLOC", 0) == 0) {
        // A marker on a line of its own leaves that line's code blank and
        // marks the declaration on the next one.
        std::string name = declared_name(sf.code[li]);
        if (name.empty() && li + 1 < sf.code.size()) {
          name = declared_name(sf.code[li + 1]);
        }
        if (name.empty()) {
          findings.push_back({rel, line_no, "directive",
                              "ARPALINT-NOALLOC marks no function "
                              "declaration on this or the next line"});
        } else {
          d.noalloc.insert(name);
        }
      } else if (rest.rfind("ARPALINT-LAYER", 0) == 0) {
        std::string layer, reason, problem;
        parse_arg_directive(rest, 0, 14, layer, reason, problem);
        if (!problem.empty()) {
          findings.push_back(
              {rel, line_no, "directive", "ARPALINT-LAYER: " + problem});
        } else if (layer_rank(layer) < 0) {
          findings.push_back({rel, line_no, "directive",
                              "ARPALINT-LAYER names unknown layer '" + layer +
                                  "'"});
        } else if (d.layer_override.has_value()) {
          findings.push_back({rel, line_no, "directive",
                              "duplicate ARPALINT-LAYER override"});
        } else {
          d.layer_override = layer;
          d.layer_override_line = line_no;
        }
      } else {
        findings.push_back({rel, line_no, "directive",
                            "unrecognized ARPALINT- directive"});
      }
    }
  }

  if (region_begin != kNoRegion) {
    findings.push_back({rel, static_cast<int>(region_begin) + 1, "directive",
                        "ARPALINT-HOTPATH-BEGIN without a matching END "
                        "(region extends to end of file)"});
    for (std::size_t k = region_begin; k < d.hot.size(); ++k) d.hot[k] = true;
  }
  if (whole_file_hot_from) {
    for (std::size_t k = whole_file_hot_start; k < d.hot.size(); ++k) {
      d.hot[k] = true;
    }
  }
  return d;
}

bool allowed(const Directives& d, std::size_t li, const char* rule) {
  const auto covers = [&](std::size_t k) {
    const auto it = d.allow.find(k);
    return it != d.allow.end() && it->second.count(rule) > 0;
  };
  return covers(li) || (li > 0 && covers(li - 1));
}

// ---------------------------------------------------------------------------
// Token matching helpers (on scrubbed code lines)

/// Finds identifier `name` at a word boundary, optionally requiring an
/// immediately following '(' (after optional spaces). `from` advances.
std::size_t find_ident(const std::string& code, const std::string& name,
                       std::size_t from, bool must_call) {
  std::size_t pos = from;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) {
      if (!must_call) return pos;
      std::size_t j = end;
      while (j < code.size() && code[j] == ' ') ++j;
      if (j < code.size() && code[j] == '(') return pos;
    }
    pos += 1;
  }
  return std::string::npos;
}

/// True for preprocessor lines (`#include <ctime>` must not trip the
/// determinism identifier scan).
bool is_preproc(const std::string& code) {
  std::size_t i = 0;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  return i < code.size() && code[i] == '#';
}

bool preceded_by_member_access(const std::string& code, std::size_t pos) {
  std::size_t j = pos;
  while (j > 0 && code[j - 1] == ' ') --j;
  if (j == 0) return false;
  if (code[j - 1] == '.') return true;
  return j >= 2 && code[j - 2] == '-' && code[j - 1] == '>';
}

/// How the name at `pos`, followed by '(', is reached.
enum class CallForm {
  kMember,       ///< `x.name(` or `p->name(`: a member of some object
  kUnqualified,  ///< `name(`: a member of `this`, or a free function
  kOther,        ///< `Scope::name(`, or the name a declaration declares
};

CallForm call_form(const std::string& code, std::size_t pos) {
  if (preceded_by_member_access(code, pos)) return CallForm::kMember;
  std::size_t j = pos;
  while (j > 0 && code[j - 1] == ' ') --j;
  if (j == 0) return CallForm::kUnqualified;  // a statement, or continuation
  const char c = code[j - 1];
  const char before = j >= 2 ? code[j - 2] : ' ';
  if (c == ':' && before == ':') return CallForm::kOther;
  if (ident_char(c)) {
    // A word before the name is a declaration's return type
    // (`void reserve(std::size_t n) {`) unless it is a keyword that
    // precedes an expression.
    std::size_t begin = j;
    while (begin > 0 && ident_char(code[begin - 1])) --begin;
    static const std::set<std::string> kExpressionKeywords{
        "return", "co_return", "co_yield", "co_await", "throw", "else",
        "case", "do"};
    return kExpressionKeywords.count(code.substr(begin, j - begin)) > 0
               ? CallForm::kUnqualified
               : CallForm::kOther;
  }
  // A return type ending in a template argument list, a pointer or a
  // reference (`T& emplace(`); `&&` is a logical and.
  if (c == '>' || c == '*' || (c == '&' && before != '&')) {
    return CallForm::kOther;
  }
  return CallForm::kUnqualified;
}

// ---------------------------------------------------------------------------
// Per-file scanned representation

struct FileInfo {
  std::string rel;  // root-relative path with forward slashes
  ScrubbedFile src;
  Directives dirs;
  // (line index, target path) for every #include "src/..." in the file.
  std::vector<std::pair<std::size_t, std::string>> src_includes;
};

bool under(const std::string& rel, const char* prefix) {
  return rel.rfind(prefix, 0) == 0;
}

std::string first_component_after_src(const std::string& path) {
  // "src/<layer>/..." -> "<layer>"
  const std::size_t a = 4;
  const std::size_t b = path.find('/', a);
  if (b == std::string::npos) return "";
  return path.substr(a, b - a);
}

// ---------------------------------------------------------------------------
// Rule: hot-path-alloc

void check_hot_path_alloc(const FileInfo& f, std::vector<Finding>& out) {
  static const std::vector<std::string> kBannedCalls{
      "malloc", "calloc", "realloc", "strdup", "aligned_alloc"};
  static const std::vector<std::string> kBannedTypes{
      "std::function", "std::shared_ptr", "std::make_shared",
      "std::make_unique"};
  static const std::vector<std::string> kAllocMembers{
      "push_back", "emplace_back", "push_front", "emplace_front", "insert",
      "emplace",   "resize",       "reserve",    "assign",        "append",
      "push"};

  for (std::size_t li = 0; li < f.src.code.size(); ++li) {
    if (!f.dirs.hot[li]) continue;
    const std::string& code = f.src.code[li];
    const int line_no = static_cast<int>(li) + 1;
    const auto report = [&](const std::string& what) {
      if (!allowed(f.dirs, li, "hot-path-alloc")) {
        out.push_back({f.rel, line_no, "hot-path-alloc", what});
      }
    };

    // operator new (placement new — `new (addr) T` — is exempt).
    std::size_t pos = 0;
    while ((pos = find_ident(code, "new", pos, false)) != std::string::npos) {
      std::size_t j = pos + 3;
      while (j < code.size() && code[j] == ' ') ++j;
      if (j >= code.size() || code[j] != '(') {
        report("operator new in a hot region");
      }
      pos += 3;
    }
    for (const std::string& fn : kBannedCalls) {
      if (find_ident(code, fn, 0, true) != std::string::npos) {
        report(fn + "() in a hot region");
      }
    }
    for (const std::string& ty : kBannedTypes) {
      if (code.find(ty) != std::string::npos) {
        report(ty + " in a hot region (allocates a control block or may "
                    "allocate per call)");
      }
    }
    for (const std::string& m : kAllocMembers) {
      if (f.dirs.noalloc.count(m) > 0) continue;
      std::size_t p = 0;
      while ((p = find_ident(code, m, p, true)) != std::string::npos) {
        const CallForm form = call_form(code, p);
        if (form == CallForm::kMember) {
          report("." + m + "() may allocate in a hot region");
          break;
        }
        if (form == CallForm::kUnqualified) {
          report("unqualified " + m + "() may allocate in a hot region");
          break;
        }
        p += m.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism

void check_determinism(const FileInfo& f, std::vector<Finding>& out) {
  if (!under(f.rel, "src/")) return;

  static const std::vector<std::pair<std::string, std::string>> kBannedIds{
      {"rand", "rand() is seed-uncontrolled; use util::Rng streams"},
      {"srand", "srand() is global state; use util::Rng streams"},
      {"random_device", "std::random_device is nondeterministic; use "
                        "util::Rng streams"},
      {"mt19937", "raw std engines bypass the seeded stream discipline; use "
                  "util::Rng"},
      {"mt19937_64", "raw std engines bypass the seeded stream discipline; "
                     "use util::Rng"},
      {"default_random_engine", "raw std engines bypass the seeded stream "
                                "discipline; use util::Rng"},
      {"minstd_rand", "raw std engines bypass the seeded stream discipline; "
                      "use util::Rng"},
      {"gettimeofday", "wall clock in simulation code breaks reproducibility"},
      {"clock_gettime", "wall clock in simulation code breaks "
                        "reproducibility"},
      {"system_clock", "wall clock in simulation code breaks reproducibility "
                       "(steady_clock is fine for stopwatches)"},
      {"localtime", "wall clock in simulation code breaks reproducibility"},
      {"gmtime", "wall clock in simulation code breaks reproducibility"},
      {"ctime", "wall clock in simulation code breaks reproducibility"},
  };

  // Collect names of declared unordered containers (file-local heuristic:
  // the last identifier of the declaration statement).
  std::vector<std::string> unordered_names;
  for (std::size_t li = 0; li < f.src.code.size(); ++li) {
    const std::string& code = f.src.code[li];
    for (const char* kw : {"unordered_map<", "unordered_set<"}) {
      const std::size_t at = code.find(kw);
      if (at == std::string::npos) continue;
      // Join the statement up to its terminating ';' (max 5 lines).
      std::string stmt = code.substr(at);
      for (std::size_t k = li + 1; k < f.src.code.size() && k < li + 5 &&
                                   stmt.find(';') == std::string::npos;
           ++k) {
        stmt += " " + f.src.code[k];
      }
      const std::size_t semi = stmt.find(';');
      if (semi == std::string::npos) continue;
      // Walk back over default-initializers to the declared identifier.
      std::size_t e = semi;
      while (e > 0 && (stmt[e - 1] == ' ' || stmt[e - 1] == '}' ||
                       stmt[e - 1] == '{')) {
        --e;
      }
      std::size_t b = e;
      while (b > 0 && ident_char(stmt[b - 1])) --b;
      if (e > b) unordered_names.push_back(stmt.substr(b, e - b));
    }
  }
  std::sort(unordered_names.begin(), unordered_names.end());
  unordered_names.erase(
      std::unique(unordered_names.begin(), unordered_names.end()),
      unordered_names.end());

  for (std::size_t li = 0; li < f.src.code.size(); ++li) {
    const std::string& code = f.src.code[li];
    if (is_preproc(code)) continue;
    const int line_no = static_cast<int>(li) + 1;
    const auto report = [&](const std::string& what) {
      if (!allowed(f.dirs, li, "determinism")) {
        out.push_back({f.rel, line_no, "determinism", what});
      }
    };

    for (const auto& [id, why] : kBannedIds) {
      std::size_t p = 0;
      while ((p = find_ident(code, id, p, false)) != std::string::npos) {
        if (!preceded_by_member_access(code, p)) {
          report(id + ": " + why);
          break;
        }
        p += id.size();
      }
    }
    // Bare time(...) — not a member call, not part of another identifier.
    {
      std::size_t p = 0;
      while ((p = find_ident(code, "time", p, true)) != std::string::npos) {
        if (!preceded_by_member_access(code, p)) {
          report("time(): wall clock in simulation code breaks "
                 "reproducibility");
          break;
        }
        p += 4;
      }
    }
    // Iteration over a declared unordered container.
    for (const std::string& name : unordered_names) {
      bool iterates = false;
      for (const char* suffix : {".begin(", ".cbegin(", ".rbegin("}) {
        if (code.find(name + suffix) != std::string::npos) iterates = true;
      }
      const std::size_t forp = code.find("for ");
      const std::size_t forp2 = code.find("for(");
      if (forp != std::string::npos || forp2 != std::string::npos) {
        for (const std::string& pat :
             {": " + name + ")", ":" + name + ")", ": " + name + " )"}) {
          if (code.find(pat) != std::string::npos) iterates = true;
        }
      }
      if (iterates) {
        report("iteration over unordered container '" + name +
               "' is order-nondeterministic");
      }
    }
    // Pointer-keyed ordered containers: std::map</std::set< with a '*' in
    // the key type (pointer order is allocation order — nondeterministic).
    for (const char* kw : {"std::map<", "std::set<"}) {
      const std::size_t at = code.find(kw);
      if (at == std::string::npos) continue;
      std::string stmt = code.substr(at + std::string_view{kw}.size());
      for (std::size_t k = li + 1;
           k < f.src.code.size() && k < li + 4 && stmt.find(';') == std::string::npos;
           ++k) {
        stmt += " " + f.src.code[k];
      }
      int depth = 0;
      bool star = false;
      for (const char ch : stmt) {
        if (ch == '<') ++depth;
        if (ch == '>') {
          if (depth == 0) break;
          --depth;
        }
        if (ch == ',' && depth == 0) break;
        if (ch == '*' && depth == 0) star = true;
      }
      if (star) {
        report(std::string{kw} +
               "...> keyed by pointer: iteration order follows allocation "
               "order");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: check-macros

void check_macros(const FileInfo& f, std::vector<Finding>& out) {
  if (!under(f.rel, "src/")) return;
  for (std::size_t li = 0; li < f.src.code.size(); ++li) {
    const std::string& code = f.src.code[li];
    if (is_preproc(code)) continue;
    if (find_ident(code, "assert", 0, true) != std::string::npos &&
        !allowed(f.dirs, li, "check-macros")) {
      out.push_back({f.rel, static_cast<int>(li) + 1, "check-macros",
                     "raw assert(); use ARPA_CHECK/ARPA_DCHECK "
                     "(src/util/check.h)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: layer-dag

std::string effective_layer(const FileInfo& f) {
  if (f.dirs.layer_override.has_value()) return *f.dirs.layer_override;
  return first_component_after_src(f.rel);
}

void check_layer_dag(const std::vector<FileInfo>& files,
                     std::vector<Finding>& out) {
  std::map<std::string, const FileInfo*> by_rel;
  for (const FileInfo& f : files) by_rel.emplace(f.rel, &f);

  for (const FileInfo& f : files) {
    if (!under(f.rel, "src/")) continue;
    const std::string layer = effective_layer(f);
    const int rank = layer_rank(layer);
    if (rank < 0) {
      out.push_back({f.rel, 1, "layer-dag",
                     "file is in unknown layer '" + layer +
                         "' (add it to the DAG or move the file)"});
      continue;
    }
    for (const auto& [li, target] : f.src_includes) {
      std::string tlayer;
      const auto it = by_rel.find(target);
      if (it != by_rel.end()) {
        tlayer = effective_layer(*it->second);
      } else {
        tlayer = first_component_after_src(target);
      }
      const int trank = layer_rank(tlayer);
      const int line_no = static_cast<int>(li) + 1;
      if (trank < 0) {
        if (!allowed(f.dirs, li, "layer-dag")) {
          out.push_back({f.rel, line_no, "layer-dag",
                         "include of unknown layer '" + tlayer + "' (" +
                             target + ")"});
        }
        continue;
      }
      if (trank > rank && !allowed(f.dirs, li, "layer-dag")) {
        out.push_back(
            {f.rel, line_no, "layer-dag",
             layer + " (rank " + std::to_string(rank) + ") includes upward " +
                 tlayer + " (rank " + std::to_string(trank) + "): " + target});
      }
    }
  }

  // File-level include cycles among the scanned src/ files.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;
  std::vector<Finding>* sink = &out;

  const std::function<void(const FileInfo&)> dfs = [&](const FileInfo& f) {
    color[f.rel] = 1;
    stack.push_back(f.rel);
    for (const auto& [li, target] : f.src_includes) {
      const auto it = by_rel.find(target);
      if (it == by_rel.end()) continue;
      const int c = color[target];
      if (c == 1) {
        std::string cyc = target;
        for (auto s = std::find(stack.begin(), stack.end(), target);
             s != stack.end(); ++s) {
          if (*s != target) cyc += " -> " + *s;
        }
        cyc += " -> " + target;
        sink->push_back({f.rel, static_cast<int>(li) + 1, "layer-dag",
                         "include cycle: " + cyc});
      } else if (c == 0) {
        dfs(*it->second);
      }
    }
    stack.pop_back();
    color[f.rel] = 2;
  };
  for (const FileInfo& f : files) {
    if (under(f.rel, "src/") && color[f.rel] == 0) dfs(f);
  }
}

// ---------------------------------------------------------------------------
// Scanning

bool skip_dir(const std::string& name) {
  return name == ".git" || name == "lint_fixtures" ||
         name.rfind("build", 0) == 0;
}

bool lintable_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".h" || e == ".hpp" || e == ".cpp" || e == ".cc";
}

void collect(const fs::path& root, const fs::path& dir,
             std::vector<fs::path>& files) {
  std::vector<fs::path> entries;
  for (const auto& de : fs::directory_iterator(root / dir)) {
    entries.push_back(de.path());
  }
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) {
    if (fs::is_directory(p)) {
      if (!skip_dir(p.filename().string())) {
        collect(root, dir / p.filename(), files);
      }
    } else if (lintable_ext(p)) {
      files.push_back(dir / p.filename());
    }
  }
}

std::optional<FileInfo> load_file(const fs::path& root, const fs::path& rel,
                                  std::vector<Finding>& findings) {
  std::ifstream in{root / rel};
  if (!in) return std::nullopt;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  FileInfo f;
  f.rel = rel.generic_string();
  f.src = scrub(lines);
  f.dirs = parse_directives(f.src, f.rel, findings);
  for (std::size_t li = 0; li < f.src.raw.size(); ++li) {
    const std::string& raw = f.src.raw[li];
    std::size_t i = 0;
    while (i < raw.size() && (raw[i] == ' ' || raw[i] == '\t')) ++i;
    if (raw.compare(i, 8, "#include") != 0) continue;
    const std::size_t q1 = raw.find('"', i + 8);
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = raw.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string target = raw.substr(q1 + 1, q2 - q1 - 1);
    if (target.rfind("src/", 0) == 0) f.src_includes.emplace_back(li, target);
  }
  return f;
}

// ---------------------------------------------------------------------------
// Output

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_json(std::ostream& os, const std::vector<Finding>& findings) {
  os << "{\n  \"tool\": \"arpalint\",\n  \"count\": " << findings.size()
     << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << json_escape(f.file)
       << "\", \"line\": " << f.line << ", \"rule\": \"" << json_escape(f.rule)
       << "\", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

}  // namespace arpalint

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using arpalint::Finding;

  fs::path root = ".";
  bool json = false;
  std::string json_path;  // empty = stdout
  std::vector<std::string> dirs;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = fs::path{std::string{arg.substr(7)}};
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = std::string{arg.substr(7)};
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: arpalint [--root=DIR] [--json[=PATH]] [dir...]\n"
                   "Scans DIR-relative directories (default: src tools "
                   "tests).\nExit: 0 clean, 1 findings, 2 usage/IO error.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "arpalint: unknown flag " << arg << "\n";
      return 2;
    } else {
      dirs.emplace_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "tools", "tests"};

  std::vector<fs::path> rel_files;
  for (const std::string& d : dirs) {
    if (!fs::is_directory(root / d)) {
      std::cerr << "arpalint: " << (root / d).string()
                << " is not a directory\n";
      return 2;
    }
    arpalint::collect(root, d, rel_files);
  }
  std::sort(rel_files.begin(), rel_files.end());

  std::vector<Finding> findings;
  std::vector<arpalint::FileInfo> files;
  files.reserve(rel_files.size());
  for (const fs::path& rel : rel_files) {
    auto f = arpalint::load_file(root, rel, findings);
    if (!f.has_value()) {
      std::cerr << "arpalint: cannot read " << (root / rel).string() << "\n";
      return 2;
    }
    files.push_back(std::move(*f));
  }

  for (const arpalint::FileInfo& f : files) {
    arpalint::check_hot_path_alloc(f, findings);
    arpalint::check_determinism(f, findings);
    arpalint::check_macros(f, findings);
  }
  arpalint::check_layer_dag(files, findings);

  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());

  if (json) {
    if (json_path.empty()) {
      arpalint::write_json(std::cout, findings);
    } else {
      std::ofstream out{json_path, std::ios::binary};
      if (!out) {
        std::cerr << "arpalint: cannot write " << json_path << "\n";
        return 2;
      }
      arpalint::write_json(out, findings);
    }
  }
  if (!json || !json_path.empty()) {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    std::cout << "arpalint: " << files.size() << " files, "
              << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << "\n";
  }
  return findings.empty() ? 0 : 1;
}
