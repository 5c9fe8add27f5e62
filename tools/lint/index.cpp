#include "lint/index.h"

#include <algorithm>
#include <set>

namespace fs = std::filesystem;

namespace lint {
namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

std::string rel_path(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

void walk_dir(const fs::path& dir, std::vector<fs::path>& out) {
  for (auto it = fs::recursive_directory_iterator(dir);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory()) {
      const std::string name = it->path().filename().string();
      // Fixtures violate on purpose; build trees aren't ours.
      if (name == "lint_fixtures" || starts_with(name, "build")) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (lintable(it->path())) out.push_back(it->path());
  }
}

}  // namespace

std::size_t skip_balanced(const SourceFile& f, std::size_t i, std::string_view open,
                          std::string_view close) {
  int depth = 0;
  for (; i < f.tokens.size(); ++i) {
    if (f.is_punct(i, open)) {
      ++depth;
    } else if (f.is_punct(i, close)) {
      if (--depth == 0) return i + 1;
    }
  }
  return f.tokens.size();
}

std::size_t body_open(const SourceFile& f, std::size_t k) {
  // Between the parameter list and the body: cv/ref/noexcept
  // qualifiers, trailing return types, `= default/delete/0`, or a
  // constructor init list whose groups are `ident (…)` / `ident {…}`.
  const auto& T = f.tokens;
  bool init_list = false;
  while (k < T.size()) {
    if (f.is_punct(k, ";") || f.is_punct(k, "}") || f.is_punct(k, "=") ||
        f.is_punct(k, ")")) {
      // A declaration, `= default` etc., or a call nested in an
      // enclosing group (`for (x : f(y)) {`) — not a definition.
      return std::string::npos;
    }
    if (f.is_punct(k, ":")) {
      init_list = true;
      ++k;
      continue;
    }
    if (f.is_punct(k, "(")) {
      k = skip_balanced(f, k, "(", ")");  // noexcept(…), init-list group
      continue;
    }
    if (f.is_punct(k, "{")) {
      // In an init list, `ident { … }` directly after a name is a
      // brace-init group, not the body; the body brace follows a
      // group's closer (or the plain `)` of the param list).
      if (init_list && k > 0 &&
          (T[k - 1].kind == Token::Kind::Ident || f.is_punct(k - 1, ">"))) {
        k = skip_balanced(f, k, "{", "}");
        continue;
      }
      return k;
    }
    ++k;
  }
  return std::string::npos;
}

namespace {

/// Recognise function definitions in one file's token stream:
/// `name ( …params… ) [qualifiers|ctor-init-list] { body }`. Control
/// keywords and SHOUTY macro names are never candidates; candidates
/// that end in ';' are declarations and carry no body. Bodies nest
/// (lambdas, local structs) into their enclosing definition's span.
void index_functions(const SourceFile& f, std::uint32_t file_idx,
                     std::vector<FunctionDef>& out) {
  const auto& T = f.tokens;
  std::size_t i = 0;
  while (i < T.size()) {
    if (T[i].kind != Token::Kind::Ident || i + 1 >= T.size() || !f.is_punct(i + 1, "(")) {
      ++i;
      continue;
    }
    const std::string_view name = f.text(T[i]);
    if (is_reserved_word(name) || is_macro_name(name)) {
      ++i;
      continue;
    }
    // Balanced parameter list.
    const std::size_t j = skip_balanced(f, i + 1, "(", ")");
    if (j >= T.size()) break;

    const std::size_t k = body_open(f, j);
    if (k == std::string::npos) {
      i = j;
      continue;
    }
    const std::size_t body_begin = k + 1;
    const std::size_t body_end = skip_balanced(f, k, "{", "}");
    FunctionDef def;
    def.file = file_idx;
    def.name_tok = static_cast<std::uint32_t>(i);
    def.name_line = T[i].line;
    def.name = std::string(name);
    def.body_begin = static_cast<std::uint32_t>(body_begin);
    def.body_end =
        static_cast<std::uint32_t>(body_end == 0 ? T.size() : body_end - 1);
    out.push_back(std::move(def));
    i = body_end;
  }
}

}  // namespace

bool is_reserved_word(std::string_view w) {
  static const std::set<std::string, std::less<>> kWords = {
      "if",      "for",     "while",    "switch",   "catch",    "return",
      "sizeof",  "alignof", "alignas",  "decltype", "typeid",   "noexcept",
      "operator", "new",    "delete",   "throw",    "case",     "goto",
      "default", "using",   "requires", "asm",      "co_await", "co_yield",
      "co_return", "static_assert",
  };
  return kWords.count(w) != 0;
}

FileIndex build_index(const fs::path& root, const std::vector<fs::path>& paths,
                      std::string* error) {
  FileIndex index;
  index.root = root;

  // The default walk lints src/ tools/ bench/ tests/; examples/ and
  // perfbench/ are only read as reference sites for test-only-api.
  static constexpr const char* kLintTrees[] = {"src", "tools", "bench", "tests"};
  static constexpr const char* kReferenceTrees[] = {"examples", "perfbench"};
  const auto walk_trees = [&](const auto& tops, std::vector<fs::path>& out) {
    for (const char* top : tops) {
      const fs::path dir = root / top;
      if (fs::exists(dir)) walk_dir(dir, out);
    }
  };

  std::vector<fs::path> found;
  if (paths.empty()) {
    walk_trees(kLintTrees, found);
  } else {
    for (const fs::path& p : paths) {
      const fs::path abs = fs::absolute(p);
      if (fs::is_directory(abs)) {
        walk_dir(abs, found);
      } else if (fs::exists(abs)) {
        found.push_back(abs);
      } else if (error != nullptr) {
        *error = "no such file: " + p.string();
        return index;
      }
    }
  }

  // Deterministic order regardless of directory iteration order; the
  // explicit-path form may name a file twice — index it once.
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());

  index.files.reserve(found.size());
  for (const fs::path& p : found) {
    SourceFile src = load_source(p, rel_path(root, p));
    index.by_path.emplace(src.path, static_cast<std::uint32_t>(index.files.size()));
    index.files.push_back(std::move(src));
  }

  // Reference-only files: the reference trees, plus — when explicit
  // paths narrowed the walk — every lint-tree file left out of it, so a
  // partial run still sees every caller.
  std::vector<fs::path> refs;
  walk_trees(kReferenceTrees, refs);
  if (!paths.empty()) walk_trees(kLintTrees, refs);
  std::sort(refs.begin(), refs.end());
  for (const fs::path& p : refs) {
    std::string rel = rel_path(root, p);
    if (index.by_path.count(rel) != 0) continue;
    index.reference_files.push_back(load_source(p, std::move(rel)));
  }

  // Resolve quoted includes root-relatively against src/ (the single
  // `-I src` include model). Unresolved targets — system-style quoted
  // includes, "../" escapes — simply contribute no edge.
  const std::size_t n = index.files.size();
  index.include_edges.resize(n);
  index.include_edge_lines.resize(n);
  for (std::size_t fi = 0; fi < n; ++fi) {
    for (const IncludeDirective& inc : index.files[fi].includes) {
      const auto it = index.by_path.find("src/" + inc.target);
      if (it == index.by_path.end()) continue;
      index.include_edges[fi].push_back(it->second);
      index.include_edge_lines[fi].push_back(inc.line);
    }
  }

  // Transitive include closure per file (iterative DFS; the graph is
  // small — a few hundred nodes — so the simple per-root walk is fine).
  index.include_closure.resize(n);
  std::vector<char> seen(n, 0);
  std::vector<std::uint32_t> stack;
  for (std::size_t fi = 0; fi < n; ++fi) {
    std::fill(seen.begin(), seen.end(), 0);
    seen[fi] = 1;
    stack.assign(index.include_edges[fi].begin(), index.include_edges[fi].end());
    while (!stack.empty()) {
      const std::uint32_t at = stack.back();
      stack.pop_back();
      if (seen[at] != 0) continue;
      seen[at] = 1;
      index.include_closure[fi].push_back(at);
      for (const std::uint32_t next : index.include_edges[at]) {
        if (seen[next] == 0) stack.push_back(next);
      }
    }
    std::sort(index.include_closure[fi].begin(), index.include_closure[fi].end());
  }

  // Function definitions, in file order (files are path-sorted, so the
  // index — and everything derived from it — is walk-order independent).
  for (std::size_t fi = 0; fi < n; ++fi) {
    index_functions(index.files[fi], static_cast<std::uint32_t>(fi), index.defs);
  }
  for (std::size_t di = 0; di < index.defs.size(); ++di) {
    index.defs_by_name[index.defs[di].name].push_back(static_cast<std::uint32_t>(di));
  }
  return index;
}

}  // namespace lint
