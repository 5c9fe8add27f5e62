// Test-only API: a function declared in a src/ header that no program
// calls. "No code survives only because its own tests use it" — a
// function whose only callers are tests is dead weight the tests keep
// alive.
//
//   declarations = function declarators at namespace or class scope of
//                  every indexed src/ header (constructors, destructors,
//                  operators, overrides, `= delete`, qualified
//                  out-of-class definitions and macros are not
//                  declarations here)
//   references   = every other occurrence of the declared name as an
//                  identifier, preprocessor lines included (a call made
//                  inside a macro body counts), in a file that can see
//                  the declaration: the header itself, its sibling .cpp,
//                  and every file whose include closure holds the header
//                  — indexed or reference-only (examples/, perfbench/) —
//                  minus the name tokens of header declarators and
//                  indexed function definitions
//
// A declaration with zero references outside tests/ is reported, as
// "tests only" when tests/ reference it and "unreferenced" otherwise.
// Matching is by unqualified name among the files that see the header,
// so a same-named function there still keeps a dead one alive: that
// false negative is the accepted envelope (DESIGN.md §14). An override
// is reached through its base, so the base's declaration stands for it.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "lint/rules.h"

namespace lint {
namespace {

struct Decl {
  std::uint32_t file = 0;
  std::uint32_t tok = 0;
};

struct Tally {
  std::uint32_t program = 0;  // references outside tests/
  std::uint32_t tests = 0;
};

/// Index of the first ';' at brace/paren depth 0 from `i`, skipping
/// balanced groups (initializers, lambdas); tokens.size() if none.
std::size_t skip_to_semicolon(const SourceFile& f, std::size_t i, std::size_t end) {
  while (i < end && !f.is_punct(i, ";")) {
    if (f.is_punct(i, "{")) {
      i = skip_balanced(f, i, "{", "}");
    } else if (f.is_punct(i, "(")) {
      i = skip_balanced(f, i, "(", ")");
    } else {
      ++i;
    }
  }
  return i;
}

/// Scan the namespace or class body in tokens [i, end) of a header,
/// recording function declarators into `out` (and every declarator name
/// token, recorded or not, into `own`). `cls` names the enclosing class,
/// empty at namespace scope.
void scan_scope(const SourceFile& f, std::uint32_t fi, std::size_t i, std::size_t end,
                std::string_view cls, std::vector<Decl>& out,
                std::vector<std::pair<std::uint32_t, std::uint32_t>>& own) {
  const auto& T = f.tokens;
  while (i < end) {
    if (f.is_punct(i, ";")) {
      ++i;
      continue;
    }
    if ((f.is_ident(i, "public") || f.is_ident(i, "private") ||
         f.is_ident(i, "protected")) &&
        i + 1 < end && f.is_punct(i + 1, ":")) {
      i += 2;
      continue;
    }
    if (f.is_ident(i, "template") && i + 1 < end && f.is_punct(i + 1, "<")) {
      i = skip_balanced(f, i + 1, "<", ">");
      continue;
    }
    if (f.is_ident(i, "using") || f.is_ident(i, "typedef")) {
      i = skip_to_semicolon(f, i, end) + 1;
      continue;
    }
    // A friend names a function declared elsewhere; it is walked to its
    // end like any declaration but not recorded.
    const bool friend_decl = f.is_ident(i, "friend");
    if (f.is_ident(i, "namespace")) {
      std::size_t k = i + 1;
      while (k < end && !f.is_punct(k, "{") && !f.is_punct(k, ";")) ++k;
      if (k < end && f.is_punct(k, "{")) {
        const std::size_t close = skip_balanced(f, k, "{", "}");
        scan_scope(f, fi, k + 1, close - 1, {}, out, own);
        i = close;
      } else {
        i = k + 1;
      }
      continue;
    }
    if (f.is_ident(i, "class") || f.is_ident(i, "struct") || f.is_ident(i, "union") ||
        f.is_ident(i, "enum")) {
      const bool is_enum = f.is_ident(i, "enum");
      std::size_t k = i + 1;
      std::string_view name;
      while (k < end && !f.is_punct(k, "{") && !f.is_punct(k, ";")) {
        if (f.is_punct(k, "(") || f.is_punct(k, "[")) {  // alignas(…), [[attr]]
          k = f.is_punct(k, "(") ? skip_balanced(f, k, "(", ")")
                                 : skip_balanced(f, k, "[", "]");
          continue;
        }
        if (name.empty() && T[k].kind == Token::Kind::Ident && !f.is_ident(k, "class") &&
            !f.is_ident(k, "struct") && !f.is_ident(k, "alignas")) {
          name = f.text(T[k]);
        }
        ++k;
      }
      if (k < end && f.is_punct(k, "{")) {
        const std::size_t close = skip_balanced(f, k, "{", "}");
        if (!is_enum) scan_scope(f, fi, k + 1, close - 1, name, out, own);
        i = skip_to_semicolon(f, close, end) + 1;  // `} var;` declarators
      } else {
        i = k + 1;
      }
      continue;
    }

    // A member or namespace-scope declaration: the first `name (` before
    // any initializer and outside template arguments is its declarator.
    const std::size_t start = friend_decl ? i + 1 : i;
    int angle = 0;
    while (i < end && !f.is_punct(i, ";")) {
      if (f.is_punct(i, "=") || f.is_punct(i, "{")) {  // a variable's initializer
        i = skip_to_semicolon(f, i, end);
        break;
      }
      if (f.is_ident(i, "operator")) {  // operator@( or operator()(
        std::size_t k = i + 1;
        if (k + 1 < end && f.is_punct(k, "(") && f.is_punct(k + 1, ")")) k += 2;
        while (k < end && !f.is_punct(k, "(")) ++k;
        const std::size_t params_end = skip_balanced(f, k, "(", ")");
        const std::size_t body = body_open(f, params_end);
        i = body == std::string::npos ? skip_to_semicolon(f, params_end, end)
                                      : skip_balanced(f, body, "{", "}");
        break;
      }
      if (f.is_punct(i, "<")) ++angle;
      if (f.is_punct(i, ">") && angle > 0) --angle;
      if (f.is_punct(i, "(") || f.is_punct(i, "[")) {  // alignas(…), [[attr]]
        i = f.is_punct(i, "(") ? skip_balanced(f, i, "(", ")")
                               : skip_balanced(f, i, "[", "]");
        continue;
      }
      if (T[i].kind != Token::Kind::Ident || angle != 0 || i + 1 >= end ||
          !f.is_punct(i + 1, "(")) {
        ++i;
        continue;
      }
      const std::string_view name = f.text(T[i]);
      if (is_reserved_word(name) || is_macro_name(name)) {
        i = skip_balanced(f, i + 1, "(", ")");
        continue;
      }
      const std::size_t params_end = skip_balanced(f, i + 1, "(", ")");
      const std::size_t body = body_open(f, params_end);
      // A plain declarator follows a return type: an identifier, a
      // closing template argument list, or a pointer/reference.
      const bool typed = i > start && (T[i - 1].kind == Token::Kind::Ident ||
                                       f.is_punct(i - 1, ">") || f.is_punct(i - 1, "*") ||
                                       f.is_punct(i - 1, "&"));
      const std::size_t stop = body == std::string::npos
                                   ? skip_to_semicolon(f, params_end, end)
                                   : skip_balanced(f, body, "{", "}");
      const bool deleted = body == std::string::npos && stop >= 2 && stop <= end &&
                           f.is_ident(stop - 1, "delete") && f.is_punct(stop - 2, "=");
      bool overrides = false;
      for (std::size_t k = params_end; k < std::min(stop, end) && !overrides; ++k) {
        if (k == body) break;
        overrides = f.is_ident(k, "override") || f.is_ident(k, "final");
      }
      own.emplace_back(fi, static_cast<std::uint32_t>(i));
      if (typed && !friend_decl && name != cls && !deleted && !overrides) {
        out.push_back(Decl{fi, static_cast<std::uint32_t>(i)});
      }
      i = stop;
      break;
    }
    if (i < end && f.is_punct(i, ";")) ++i;
  }
}

using Own = std::vector<std::pair<std::uint32_t, std::uint32_t>>;  // (file, name token)

/// Count the references one file makes: each identifier token (and each
/// identifier of its preprocessor lines, which carry no tokens, so macro
/// bodies would otherwise be invisible) that names a declaration whose
/// header `visible` marks. `fi` is the file's index, or npos for a
/// reference-only file; its own declarator and definition names are
/// skipped.
void count_references(const SourceFile& f, std::size_t fi,
                      const std::unordered_map<std::string_view, std::vector<std::uint32_t>>& by_name,
                      const std::vector<Decl>& decls, const std::vector<char>& visible,
                      const Own& own, std::vector<Tally>& tally) {
  const bool test = starts_with(f.path, "tests/");
  const auto hit = [&](std::string_view word) {
    const auto it = by_name.find(word);
    if (it == by_name.end()) return;
    for (const std::uint32_t d : it->second) {
      if (visible[decls[d].file] != 0) ++(test ? tally[d].tests : tally[d].program);
    }
  };
  for (std::size_t k = 0; k < f.tokens.size(); ++k) {
    const Token& t = f.tokens[k];
    if (t.kind != Token::Kind::Ident) continue;
    if (fi != std::string::npos &&
        std::binary_search(own.begin(), own.end(),
                           std::pair{static_cast<std::uint32_t>(fi), static_cast<std::uint32_t>(k)})) {
      continue;  // a declarator or definition name is not a reference to itself
    }
    hit(f.text(t));
  }
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    if (!f.preprocessor[li]) continue;
    const std::string_view line = f.code[li];
    for (std::size_t i = 0; i < line.size();) {
      if (!ident_char(line[i])) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < line.size() && ident_char(line[j])) ++j;
      hit(line.substr(i, j - i));
      i = j;
    }
  }
}

/// Mark in `visible` the headers a file sees: the ones its includes
/// reach, itself, and — for a .cpp — its sibling header.
void mark_visible(const FileIndex& index, const SourceFile& f, std::size_t fi,
                  std::vector<char>& visible) {
  std::fill(visible.begin(), visible.end(), 0);
  const auto mark_with_closure = [&](std::uint32_t at) {
    visible[at] = 1;
    for (const std::uint32_t c : index.include_closure[at]) visible[c] = 1;
  };
  if (fi != std::string::npos) {
    mark_with_closure(static_cast<std::uint32_t>(fi));
  } else {
    for (const IncludeDirective& inc : f.includes) {
      const auto it = index.by_path.find("src/" + inc.target);
      if (it != index.by_path.end()) mark_with_closure(it->second);
    }
  }
  constexpr std::string_view kCpp = ".cpp";
  if (f.path.size() > kCpp.size() && f.path.ends_with(kCpp)) {
    const auto it = index.by_path.find(f.path.substr(0, f.path.size() - kCpp.size()) + ".h");
    if (it != index.by_path.end()) visible[it->second] = 1;
  }
}

}  // namespace

void rule_test_only_api(const FileIndex& index, Emit& out) {
  std::vector<Decl> decls;
  Own own;
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    const SourceFile& src = index.files[fi];
    if (!starts_with(src.path, "src/") || !is_header(src.path)) continue;
    scan_scope(src, static_cast<std::uint32_t>(fi), 0, src.tokens.size(), {}, decls, own);
  }
  if (decls.empty()) return;
  for (const FunctionDef& def : index.defs) own.emplace_back(def.file, def.name_tok);
  std::sort(own.begin(), own.end());
  own.erase(std::unique(own.begin(), own.end()), own.end());

  std::unordered_map<std::string_view, std::vector<std::uint32_t>> by_name;
  for (std::size_t d = 0; d < decls.size(); ++d) {
    const SourceFile& src = index.files[decls[d].file];
    by_name[src.text(src.tokens[decls[d].tok])].push_back(static_cast<std::uint32_t>(d));
  }
  std::vector<Tally> tally(decls.size());
  std::vector<char> visible(index.files.size(), 0);
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    mark_visible(index, index.files[fi], fi, visible);
    count_references(index.files[fi], fi, by_name, decls, visible, own, tally);
  }
  for (const SourceFile& src : index.reference_files) {
    mark_visible(index, src, std::string::npos, visible);
    count_references(src, std::string::npos, by_name, decls, visible, own, tally);
  }

  for (std::size_t d = 0; d < decls.size(); ++d) {
    const SourceFile& src = index.files[decls[d].file];
    const Token& name_tok = src.tokens[decls[d].tok];
    if (tally[d].program != 0) continue;
    emit(out, src, name_tok.line, "test-only-api",
         quoted(src.text(name_tok)) +
             (tally[d].tests != 0 ? " is called only from tests/" : " is unreferenced") +
             "; delete it, or allow() it with the behaviour only it exposes");
  }
}

}  // namespace lint
