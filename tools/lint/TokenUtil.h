//===- tools/lint/TokenUtil.h - Shared token-scan helpers -------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small token-stream predicates shared by the per-file rules (Rules.cpp)
/// and the call-graph pass (Parser.cpp / Effects.cpp). They encode the
/// project's conventions for reading the comment/literal-stripped stream:
/// how a `std::` qualification looks, what distinguishes a call site from
/// a declaration, and how to hop over balanced delimiter groups.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TOOLS_LINT_TOKENUTIL_H
#define REGMON_TOOLS_LINT_TOKENUTIL_H

#include "Lint.h"

#include <algorithm>
#include <initializer_list>

namespace regmon::lint {

inline bool isId(const Token &T, std::string_view S) {
  return T.Kind == TokenKind::Identifier && T.Text == S;
}

inline bool isPunct(const Token &T, std::string_view S) {
  return T.Kind == TokenKind::Punct && T.Text == S;
}

inline bool oneOf(std::string_view S,
                  std::initializer_list<std::string_view> Set) {
  return std::find(Set.begin(), Set.end(), S) != Set.end();
}

/// True when Tokens[I] is written `std::<name>` or unqualified; false when
/// it is a member access (`x.name`, `x->name`) or qualified by a namespace
/// other than std (`mylib::name`).
inline bool isStdOrUnqualified(const std::vector<Token> &Toks,
                               std::size_t I) {
  if (I == 0)
    return true;
  const Token &Prev = Toks[I - 1];
  if (isPunct(Prev, ".") || isPunct(Prev, "->"))
    return false;
  if (isPunct(Prev, "::"))
    return I >= 2 && isId(Toks[I - 2], "std");
  return true;
}

/// True when Tokens[I] is a free function name written unqualified or
/// `::<name>` (the global namespace, where the POSIX calls live): not a
/// member access and not qualified by a class or namespace.
inline bool isGlobalOrUnqualified(const std::vector<Token> &Toks,
                                  std::size_t I) {
  if (I == 0)
    return true;
  const Token &Prev = Toks[I - 1];
  if (isPunct(Prev, ".") || isPunct(Prev, "->"))
    return false;
  if (isPunct(Prev, "::"))
    return I < 2 || Toks[I - 2].Kind != TokenKind::Identifier ||
           oneOf(Toks[I - 2].Text, {"return", "co_return", "else", "do"});
  return true;
}

/// True when Tokens[I] is written exactly `std::<name>`.
inline bool isStdQualified(const std::vector<Token> &Toks, std::size_t I) {
  return I >= 2 && isPunct(Toks[I - 1], "::") && isId(Toks[I - 2], "std");
}

inline bool nextIs(const std::vector<Token> &Toks, std::size_t I,
                   std::string_view Punct) {
  return I + 1 < Toks.size() && isPunct(Toks[I + 1], Punct);
}

/// Distinguishes `time(...)` the call from `long time()` the declaration:
/// a call site is preceded by punctuation (`=`, `(`, `,`, `;`, `{`, ...)
/// or by `return`; a declaration is preceded by its return type.
inline bool looksLikeCall(const std::vector<Token> &Toks, std::size_t I) {
  if (I == 0)
    return false;
  const Token &Prev = Toks[I - 1];
  if (Prev.Kind == TokenKind::Identifier)
    return Prev.Text == "return" || Prev.Text == "co_return";
  return Prev.Kind == TokenKind::Punct;
}

/// Index one past the closing delimiter matching Toks[Open] (which must be
/// `(` `[` `{` or `<`). Returns Toks.size() when unbalanced.
inline std::size_t skipBalanced(const std::vector<Token> &Toks,
                                std::size_t Open, std::string_view OpenSym,
                                std::string_view CloseSym) {
  int Depth = 0;
  for (std::size_t I = Open; I < Toks.size(); ++I) {
    if (isPunct(Toks[I], OpenSym))
      ++Depth;
    else if (isPunct(Toks[I], CloseSym) && --Depth == 0)
      return I + 1;
    else if (OpenSym == "<" && isPunct(Toks[I], ">>")) {
      Depth -= 2;
      if (Depth <= 0)
        return I + 1;
    }
  }
  return Toks.size();
}

} // namespace regmon::lint

#endif // REGMON_TOOLS_LINT_TOKENUTIL_H
