#include "lexer.hpp"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace osiris::analyze {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

/// Harvest `analyze-suppress(detector): reason` from a comment body.
/// Registers at the comment's own line (trailing-comment idiom) and queues
/// the detectors in `pending` so the tokenizer can also attach them to the
/// next code line (comment-above idiom, however many comment lines tall).
void harvest_suppressions(std::string_view comment, int line, LexedFile& out,
                          std::vector<std::string>& pending) {
  constexpr std::string_view kTag = "analyze-suppress(";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string_view::npos) {
    pos += kTag.size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string_view::npos) break;
    std::string detector(comment.substr(pos, close - pos));
    // Trim surrounding whitespace.
    while (!detector.empty() && detector.front() == ' ') detector.erase(detector.begin());
    while (!detector.empty() && detector.back() == ' ') detector.pop_back();
    if (!detector.empty()) {
      out.suppressions[line].push_back(detector);
      pending.push_back(detector);
    }
    pos = close;
  }
}

}  // namespace

bool LexedFile::suppressed(const std::string& detector, int line) const {
  // A suppression covers its own line and the next one (comment-above idiom).
  for (int l : {line, line - 1}) {
    auto it = suppressions.find(l);
    if (it == suppressions.end()) continue;
    for (const std::string& d : it->second) {
      if (d == detector || d == "*") return true;
    }
  }
  return false;
}

LexedFile lex_source(std::string path, std::string_view src) {
  LexedFile out;
  out.path = std::move(path);
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  std::vector<std::string> pending;  // suppressions waiting for the next code line
  auto push = [&](Tok kind, std::string text) {
    if (!pending.empty()) {
      auto& dst = out.suppressions[line];
      dst.insert(dst.end(), pending.begin(), pending.end());
      pending.clear();
    }
    out.tokens.push_back(Token{kind, std::move(text), line});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t end = src.find('\n', i);
      const std::size_t stop = end == std::string_view::npos ? n : end;
      harvest_suppressions(src.substr(i, stop - i), line, out, pending);
      i = stop;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t end = src.find("*/", i + 2);
      const std::size_t stop = end == std::string_view::npos ? n : end + 2;
      harvest_suppressions(src.substr(i, stop - i), line, out, pending);
      for (std::size_t j = i; j < stop; ++j) {
        if (src[j] == '\n') ++line;
      }
      i = stop;
      continue;
    }
    // Preprocessor directive: skip to end of line (honouring continuations) —
    // except the OSIRIS_MSG_SPEC X-macro table, the protocol's single source
    // of truth, whose body the spec pass must see. For it only the
    // `#define OSIRIS_MSG_SPEC(X)` header is skipped; the row invocations lex
    // as ordinary tokens (the continuation backslashes are eaten below).
    if (c == '#') {
      constexpr std::string_view kSpecDefine = "define OSIRIS_MSG_SPEC(";
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      if (src.substr(j).substr(0, kSpecDefine.size()) == kSpecDefine) {
        const std::size_t close = src.find(')', j);
        if (close != std::string_view::npos) {
          i = close + 1;
          continue;
        }
      }
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    // Line-continuation backslash (inside a lexed macro body): whitespace.
    if (c == '\\' && i + 1 < n && src[i + 1] == '\n') {
      ++i;
      continue;
    }
    // String literal.
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '"') {
        if (src[j] == '\\') ++j;
        ++j;
      }
      push(Tok::kString, std::string(src.substr(i, j + 1 - i)));
      i = j + 1;
      continue;
    }
    // Char literal.
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '\'') {
        if (src[j] == '\\') ++j;
        ++j;
      }
      push(Tok::kString, std::string(src.substr(i, j + 1 - i)));
      i = j + 1;
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      push(Tok::kIdent, std::string(src.substr(i, j - i)));
      i = j;
      continue;
    }
    // Number (decimal / hex / suffixes; precise value parsing happens later).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < n && (ident_char(src[j]) || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && (src[j - 1] == 'e' || src[j - 1] == 'E')))) {
        ++j;
      }
      push(Tok::kNumber, std::string(src.substr(i, j - i)));
      i = j;
      continue;
    }
    // Two-char operators the passes care about; everything else single char.
    if (i + 1 < n) {
      const std::string_view two = src.substr(i, 2);
      if (two == "::" || two == "->") {
        push(Tok::kPunct, std::string(two));
        i += 2;
        continue;
      }
    }
    push(Tok::kPunct, std::string(1, c));
    ++i;
  }
  return out;
}

LexedFile lex_file(const std::string& path, std::string display_path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("osiris-analyze: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  // A mid-stream read failure leaves a truncated buffer that would lex as a
  // shorter (possibly "clean") file; treat it the same as an unopenable one.
  if (in.bad()) throw std::runtime_error("osiris-analyze: read failed for " + path);
  const std::string src = ss.str();
  // An empty input is never a legitimate source or fixture file — it is a
  // stray artifact (touch, failed checkout) that would silently analyze as
  // "clean"; fail loudly instead.
  if (src.empty()) throw std::runtime_error("osiris-analyze: empty input " + path);
  return lex_source(display_path.empty() ? path : std::move(display_path), src);
}

std::size_t match_forward(const std::vector<Token>& t, std::size_t open, const char* op,
                          const char* cl) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].is(op)) ++depth;
    if (t[i].is(cl) && --depth == 0) return i;
  }
  return t.size();
}

bool is_control_keyword(std::string_view s) {
  static const std::set<std::string_view> kw = {
      "if",     "for",     "while",    "switch",   "catch",         "return",
      "sizeof", "alignof", "decltype", "noexcept", "static_assert", "throw",
      "new",    "delete",  "do",       "else",     "case",          "operator",
      "alignas",
  };
  return kw.count(s) != 0;
}

}  // namespace osiris::analyze
