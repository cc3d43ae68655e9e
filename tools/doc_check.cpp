// doc_check: keeps the documentation honest. Scans README.md, DESIGN.md,
// EXPERIMENTS.md, and docs/*.md for (a) repo-relative file references,
// verifying each file exists, (b) IOCnnn diagnostic codes, verifying each
// is a registered lint rule — and conversely that every registered rule is
// documented in docs/DIAGNOSTICS.md — and (c) `ioc.bench.*` schema tags,
// verifying each is in the bench_schemas.h table that bench_check
// dispatches on. Run by ctest (docs.links) so renames, new rules, and
// schema drift fail the build instead of rotting the docs.
//
// Extra .md files may be passed after the repo root; they are scanned with
// the same rules (ctest uses this to prove doc_check rejects fixtures
// containing an unknown IOC code / bench schema tag).
//
// usage: doc_check <repo-root> [extra.md ...]
// exit 0 clean, 1 findings, 2 usage.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_schemas.h"
#include "lint/rules.h"

namespace fs = std::filesystem;

namespace {

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

int line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

// Hand-written scanners, not std::regex: built with -fsanitize=address,
// GCC 12 warns (-Wmaybe-uninitialized) inside libstdc++'s regex compiler.
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alnum(char c) { return std::isalnum(static_cast<unsigned char>(c)); }
bool is_word(char c) { return is_alnum(c) || c == '_'; }
bool is_path_char(char c) {
  return is_word(c) || c == '.' || c == '/' || c == '-';
}
/// Length of the run of `pred` characters at `i`.
template <class Pred>
std::size_t run(const std::string& text, std::size_t i, Pred pred) {
  std::size_t n = 0;
  while (i + n < text.size() && pred(text[i + n])) ++n;
  return n;
}

/// File references: paths rooted at a first-party source directory with an
/// extension — the run of path characters from the root up to the last '.'
/// followed by alphanumerics, and those alphanumerics. A reference starts at
/// the beginning of the text or after a character that cannot be part of a
/// path, so "perfbench/run.py" is never read as "bench/run.py". Returns
/// (offset, path) pairs.
std::vector<std::pair<std::size_t, std::string>> path_refs(
    const std::string& text) {
  static const char* const kRoots[] = {"src/",   "docs/",      "tools/",
                                       "bench/", "perfbench/", "tests/",
                                       "examples/"};
  std::vector<std::pair<std::size_t, std::string>> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (i > 0 && is_path_char(text[i - 1])) continue;
    const std::size_t end = i + run(text, i, is_path_char);
    for (const char* root : kRoots) {
      const std::size_t body = i + std::strlen(root);
      if (body > end || text.compare(i, body - i, root) != 0) continue;
      std::size_t dot = std::string::npos;
      for (std::size_t d = body; d + 1 < end; ++d) {
        if (text[d] == '.' && is_alnum(text[d + 1])) dot = d;
      }
      if (dot == std::string::npos) break;  // no extension: not a reference
      const std::size_t stop = dot + 1 + run(text, dot + 1, is_alnum);
      out.emplace_back(i, text.substr(i, stop - i));
      i = stop - 1;
      break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: doc_check <repo-root> [extra.md ...]\n");
    return 2;
  }
  const fs::path root = argv[1];
  std::vector<fs::path> doc_files = {root / "README.md", root / "DESIGN.md",
                                     root / "EXPERIMENTS.md"};
  if (fs::is_directory(root / "docs")) {
    for (const auto& e : fs::directory_iterator(root / "docs")) {
      if (e.path().extension() == ".md") doc_files.push_back(e.path());
    }
  }
  for (int i = 2; i < argc; ++i) doc_files.emplace_back(argv[i]);

  int findings = 0;
  std::set<std::string> codes_seen_in_diagnostics_md;
  for (const fs::path& doc : doc_files) {
    std::string text;
    if (!read_file(doc, &text)) {
      std::printf("doc_check: missing documentation file %s\n",
                  doc.string().c_str());
      ++findings;
      continue;
    }
    for (const auto& [at, ref] : path_refs(text)) {
      if (ref.find('*') != std::string::npos) continue;
      if (!fs::exists(root / ref)) {
        std::printf("%s:%d: reference to missing file '%s'\n",
                    doc.string().c_str(), line_of(text, at), ref.c_str());
        ++findings;
      }
    }
    const bool is_diagnostics_doc = doc.filename() == "DIAGNOSTICS.md";
    // Diagnostic codes: "IOC" and three digits.
    for (std::size_t i = text.find("IOC"); i != std::string::npos;
         i = text.find("IOC", i + 1)) {
      if (run(text, i + 3, is_digit) < 3) continue;
      const std::string code = text.substr(i, 6);
      if (is_diagnostics_doc) codes_seen_in_diagnostics_md.insert(code);
      if (ioc::lint::find_rule(code) == nullptr) {
        std::printf("%s:%d: unknown diagnostic code '%s'\n",
                    doc.string().c_str(), line_of(text, i), code.c_str());
        ++findings;
      }
      i += code.size() - 1;
    }
    // Bench artifact schema tags, e.g. "ioc.bench.kernels/v1". Every tag a
    // doc quotes must be in the bench_schemas.h table bench_check
    // dispatches on.
    const std::string kSchema = "ioc.bench.";
    for (std::size_t i = text.find(kSchema); i != std::string::npos;
         i = text.find(kSchema, i + 1)) {
      const std::size_t name = run(text, i + kSchema.size(), is_word);
      const std::size_t v = i + kSchema.size() + name;
      if (name == 0 || text.compare(v, 2, "/v") != 0) continue;
      const std::size_t version = run(text, v + 2, is_digit);
      if (version == 0) continue;
      const std::string tag = text.substr(i, v + 2 + version - i);
      if (!ioc::benchschema::is_known_schema(tag)) {
        std::printf("%s:%d: unknown bench schema tag '%s'\n",
                    doc.string().c_str(), line_of(text, i), tag.c_str());
        ++findings;
      }
      i += tag.size() - 1;
    }
  }

  // Inverse check: every registered rule must have a DIAGNOSTICS.md entry.
  for (const auto& r : ioc::lint::rules()) {
    if (codes_seen_in_diagnostics_md.count(r.info.code) == 0) {
      std::printf(
          "docs/DIAGNOSTICS.md: registered diagnostic %s is undocumented\n",
          r.info.code);
      ++findings;
    }
  }

  if (findings == 0) {
    std::printf("doc_check: %zu documentation files clean\n",
                doc_files.size());
    return 0;
  }
  std::printf("doc_check: %d finding(s)\n", findings);
  return 1;
}
