// osiris-analyze: a lightweight C++ tokenizer.
//
// The analyzer does not need a real C++ front end: the discipline and SEEP
// passes only match local token shapes (struct bodies, call expressions,
// spec-table rows). The lexer therefore produces a flat token stream with
// comments, string literals and preprocessor directives stripped — but it
// *does* harvest `analyze-suppress(detector): reason` comments, which are
// the mechanism for classifying intentional deviations in the source tree.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace osiris::analyze {

enum class Tok : unsigned char { kIdent, kNumber, kString, kPunct };

struct Token {
  Tok kind;
  std::string text;
  int line;

  [[nodiscard]] bool is(std::string_view s) const { return text == s; }
  [[nodiscard]] bool is_ident(std::string_view s) const { return kind == Tok::kIdent && text == s; }
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  /// line -> detector ids suppressed on that line (a suppression comment
  /// covers its own line and the line directly below it).
  std::map<int, std::vector<std::string>> suppressions;

  [[nodiscard]] bool suppressed(const std::string& detector, int line) const;
};

/// Tokenize an in-memory buffer (path is carried through for findings).
LexedFile lex_source(std::string path, std::string_view src);

/// Read and tokenize a file; throws std::runtime_error if unreadable.
/// `display_path` (when non-empty) replaces `path` in findings — the
/// analyzer passes repo-relative paths so reports are machine-stable.
LexedFile lex_file(const std::string& path, std::string display_path = {});

/// Index of the closer `cl` matching the opener `op` at `open` (e.g. "("
/// and ")"), or t.size() if unbalanced.
std::size_t match_forward(const std::vector<Token>& t, std::size_t open, const char* op,
                          const char* cl);

/// Keywords that look like `name (` but never denote a function definition
/// or a resolvable call.
bool is_control_keyword(std::string_view s);

}  // namespace osiris::analyze
