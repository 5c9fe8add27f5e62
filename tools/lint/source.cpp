#include "lint/source.h"

#include <cctype>
#include <fstream>

namespace lint {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool is_header(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

bool is_macro_name(std::string_view name) {
  bool saw_upper = false;
  for (const char c : name) {
    if (std::isupper(static_cast<unsigned char>(c)) != 0) {
      saw_upper = true;
    } else if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return saw_upper;
}

namespace {

/// Parse allow(rule-a, rule-b) suppression directives out of a comment's
/// text. Returns the rule names and reports, via `has_reason`, whether
/// the comment carries any prose besides the directives themselves.
void harvest_allow(const std::string& comment, std::set<std::string>& out,
                   bool& has_reason) {
  const std::string key = "ds-lint:";
  std::string residue = comment;  // comment minus the directive spans
  std::size_t at = comment.find(key);
  while (at != std::string::npos) {
    std::size_t p = at + key.size();
    while (p < comment.size() && comment[p] == ' ') ++p;
    if (comment.compare(p, 6, "allow(") == 0) {
      p += 6;
      const std::size_t close = comment.find(')', p);
      if (close != std::string::npos) {
        std::string name;
        for (std::size_t i = p; i <= close; ++i) {
          const char c = comment[i];
          if (c == ',' || c == ')') {
            if (!name.empty()) out.insert(name);
            name.clear();
          } else if (c != ' ') {
            name.push_back(c);
          }
        }
        for (std::size_t i = at; i <= close && i < residue.size(); ++i) residue[i] = ' ';
      }
    }
    at = comment.find(key, at + key.size());
  }
  for (const char c : residue) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      has_reason = true;
      return;
    }
  }
}

/// Strip comments and string/char literals from `src.raw` into
/// `src.code`, preserving line structure; harvest suppression comments.
void strip(SourceFile& src) {
  src.code.resize(src.raw.size());
  src.allow_rules.resize(src.raw.size());

  enum class Mode { Code, Block, Str, Chr, RawStr };
  Mode mode = Mode::Code;
  std::string raw_delim;  // raw-string closing delimiter
  std::vector<std::string> comment_on(src.raw.size());

  for (std::size_t li = 0; li < src.raw.size(); ++li) {
    const std::string& s = src.raw[li];
    std::string& out = src.code[li];
    out.assign(s.size(), ' ');
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      switch (mode) {
        case Mode::Code:
          if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
            comment_on[li] += s.substr(i + 2);
            i = s.size();  // rest of line is comment
          } else if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
            mode = Mode::Block;
            ++i;
          } else if (c == '"') {
            // R"delim( ... )delim" raw strings
            if (i >= 1 && s[i - 1] == 'R' && (i < 2 || !ident_char(s[i - 2]))) {
              const std::size_t open = s.find('(', i + 1);
              if (open != std::string::npos) {
                // Appended piecewise: GCC 12 misreads `")" + s.substr(…)`
                // as an overlapping copy (-Wrestrict).
                raw_delim.assign(1, ')');
                raw_delim.append(s, i + 1, open - i - 1);
                raw_delim.push_back('"');
                out[i] = '"';
                i = open;
                mode = Mode::RawStr;
                break;
              }
            }
            out[i] = '"';
            mode = Mode::Str;
          } else if (c == '\'' && !(i > 0 && ident_char(s[i - 1]))) {
            // char literal (not a digit separator like 10'000)
            out[i] = '\'';
            mode = Mode::Chr;
          } else {
            out[i] = c;
          }
          break;
        case Mode::Block: {
          const std::size_t close = s.find("*/", i);
          if (close == std::string::npos) {
            comment_on[li] += s.substr(i);
            i = s.size();
          } else {
            comment_on[li] += s.substr(i, close - i);
            i = close + 1;
            mode = Mode::Code;
          }
          break;
        }
        case Mode::Str:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            out[i] = '"';
            mode = Mode::Code;
          }
          break;
        case Mode::Chr:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            out[i] = '\'';
            mode = Mode::Code;
          }
          break;
        case Mode::RawStr: {
          const std::size_t close = s.find(raw_delim, i);
          if (close == std::string::npos) {
            i = s.size();
          } else {
            i = close + raw_delim.size() - 1;
            out[i] = '"';
            mode = Mode::Code;
          }
          break;
        }
      }
    }
  }

  // A suppression covers its own line and the line below (comment-above
  // style). Harvest after the full pass so block comments work too.
  for (std::size_t li = 0; li < comment_on.size(); ++li) {
    if (comment_on[li].empty()) continue;
    AllowSite site;
    site.line = static_cast<std::uint32_t>(li);
    harvest_allow(comment_on[li], site.rules, site.has_reason);
    if (site.rules.empty()) continue;
    src.allow_rules[li].insert(site.rules.begin(), site.rules.end());
    if (li + 1 < src.allow_rules.size()) {
      src.allow_rules[li + 1].insert(site.rules.begin(), site.rules.end());
    }
    src.allow_sites.push_back(std::move(site));
  }
}

/// Mark preprocessor lines (leading '#', plus backslash continuations)
/// and harvest quoted #include directives from the raw text.
void scan_preprocessor(SourceFile& src) {
  src.preprocessor.assign(src.raw.size(), false);
  bool continued = false;
  for (std::size_t li = 0; li < src.raw.size(); ++li) {
    bool pp = continued;
    const std::string& code = src.code[li];
    const std::size_t first = code.find_first_not_of(" \t");
    if (!pp && first != std::string::npos && code[first] == '#') pp = true;
    src.preprocessor[li] = pp;
    continued = pp && !src.raw[li].empty() && src.raw[li].back() == '\\';
    if (!pp || first == std::string::npos || code[first] != '#') continue;
    if (code.find("include", first) == std::string::npos) continue;
    // The quoted path was blanked in the code view; read it from raw.
    const std::string& raw = src.raw[li];
    const std::size_t open = raw.find('"');
    if (open == std::string::npos) continue;
    const std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    src.includes.push_back(
        IncludeDirective{raw.substr(open + 1, close - open - 1),
                         static_cast<std::uint32_t>(li)});
  }
}

/// Tokenise the code view into the shared stream (one lex per file —
/// every rule reads this). Preprocessor lines produce no tokens.
void lex(SourceFile& src) {
  for (std::size_t li = 0; li < src.code.size(); ++li) {
    if (src.preprocessor[li]) continue;
    const std::string& line = src.code[li];
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (c == ' ' || c == '\t') {
        ++i;
        continue;
      }
      Token t;
      t.line = static_cast<std::uint32_t>(li);
      t.col = static_cast<std::uint16_t>(i);
      if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
        std::size_t j = i + 1;
        while (j < line.size() && ident_char(line[j])) ++j;
        t.kind = Token::Kind::Ident;
        t.len = static_cast<std::uint16_t>(j - i);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i + 1;
        while (j < line.size() &&
               (ident_char(line[j]) || line[j] == '.' || line[j] == '\'' ||
                ((line[j] == '+' || line[j] == '-') &&
                 (line[j - 1] == 'e' || line[j - 1] == 'E' || line[j - 1] == 'p' ||
                  line[j - 1] == 'P')))) {
          ++j;
        }
        t.kind = Token::Kind::Number;
        t.len = static_cast<std::uint16_t>(j - i);
        i = j;
      } else {
        t.kind = Token::Kind::Punct;
        // Multi-char operators the rules care about: '::' and '->'.
        if (i + 1 < line.size() &&
            ((c == ':' && line[i + 1] == ':') || (c == '-' && line[i + 1] == '>'))) {
          t.len = 2;
          i += 2;
        } else {
          t.len = 1;
          ++i;
        }
      }
      src.tokens.push_back(t);
    }
  }
}

/// Pair DS_HOT_BEGIN/DS_HOT_END markers into token spans, collecting
/// nesting errors for the no-alloc-markers rule to report. The marker
/// macros' own `#define` lines never appear here — preprocessor lines
/// carry no tokens.
void extract_hot_regions(SourceFile& src) {
  bool hot = false;
  std::uint32_t begin_tok = 0;
  std::uint32_t begin_line = 0;
  for (std::size_t i = 0; i < src.tokens.size(); ++i) {
    const Token& t = src.tokens[i];
    if (t.kind != Token::Kind::Ident) continue;
    const std::string_view text = src.text(t);
    if (text == "DS_HOT_BEGIN") {
      if (hot) {
        src.marker_errors.push_back(
            MarkerError{t.line, "nested DS_HOT_BEGIN (missing DS_HOT_END?)"});
      }
      hot = true;
      begin_tok = static_cast<std::uint32_t>(i + 1);
      begin_line = t.line;
    } else if (text == "DS_HOT_END") {
      if (!hot) {
        src.marker_errors.push_back(MarkerError{t.line, "DS_HOT_END without DS_HOT_BEGIN"});
        continue;
      }
      src.hot_regions.push_back(
          HotRegion{begin_tok, static_cast<std::uint32_t>(i), begin_line});
      hot = false;
    }
  }
  if (hot) {
    const std::uint32_t last_line =
        src.code.empty() ? 0 : static_cast<std::uint32_t>(src.code.size() - 1);
    src.marker_errors.push_back(
        MarkerError{last_line, "DS_HOT_BEGIN region not closed by end of file"});
    src.hot_regions.push_back(
        HotRegion{begin_tok, static_cast<std::uint32_t>(src.tokens.size()), begin_line});
  }
}

}  // namespace

SourceFile load_source(const std::filesystem::path& abspath, std::string rel) {
  SourceFile src;
  src.path = std::move(rel);
  std::ifstream in(abspath);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    src.raw.push_back(line);
  }
  strip(src);
  scan_preprocessor(src);
  lex(src);
  extract_hot_regions(src);
  return src;
}

}  // namespace lint
