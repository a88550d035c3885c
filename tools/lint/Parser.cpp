//===- tools/lint/Parser.cpp - Declaration parser for the graph -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A structural walker over the Lexer's token stream. It maintains a scope
// stack (namespaces, class bodies, plain blocks) and never descends into
// function bodies — a body is balanced-brace-skipped and recorded as an
// opaque token range for Effects.cpp. Annotation macros (REGMON_HOT,
// REGMON_PURE) and `static` are collected as pending flags that attach to
// the next declaration.
//
// The walker is deliberately conservative: when a construct does not match
// any of its shapes it advances one token and keeps going, so the worst
// failure mode is a missing symbol, not a malformed one.
//
//===----------------------------------------------------------------------===//

#include "Parser.h"

#include "TokenUtil.h"

namespace regmon::lint {
namespace {

class Walker {
public:
  explicit Walker(const FileContext &Ctx) : FC(Ctx), T(Ctx.Tokens) {}

  ParsedFile run() {
    for (const Token &Tok : T)
      if (Tok.Kind == TokenKind::Identifier)
        Out.Identifiers.insert(Tok.Text);
    std::size_t I = 0;
    while (I < T.size())
      I = step(I);
    return std::move(Out);
  }

private:
  struct Scope {
    enum Kind { Ns, Class, Block } K;
    std::string Name;
    bool Anonymous = false;
  };

  const FileContext &FC;
  const std::vector<Token> &T;
  ParsedFile Out;
  std::vector<Scope> Scopes;
  bool PendingHot = false;
  bool PendingPure = false;
  bool PendingStatic = false;

  void clearPending() { PendingHot = PendingPure = PendingStatic = false; }

  bool inClass() const {
    return !Scopes.empty() && Scopes.back().K == Scope::Class;
  }

  bool inAnonymousNs() const {
    for (const Scope &S : Scopes)
      if (S.Anonymous)
        return true;
    return false;
  }

  std::string nsScope() const {
    std::string Path;
    for (const Scope &S : Scopes)
      if (S.K == Scope::Ns && !S.Anonymous && !S.Name.empty()) {
        if (!Path.empty())
          Path += "::";
        Path += S.Name;
      }
    return Path;
  }

  std::string enclosingClass() const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (It->K == Scope::Class)
        return It->Name;
    return {};
  }

  /// True when a GNU `__attribute__((...))` starts at \p I. Like
  /// `[[...]]` it names nothing, so callers skip it whole.
  bool gnuAttributeAt(std::size_t I) const {
    return isId(T[I], "__attribute__") && nextIs(T, I, "(");
  }

  /// Skips to one past the `;` terminating the current statement,
  /// balancing (), [] and {} (initializer lists, lambdas) on the way.
  std::size_t skipToSemi(std::size_t I) const {
    while (I < T.size()) {
      if (isPunct(T[I], "("))
        I = skipBalanced(T, I, "(", ")");
      else if (isPunct(T[I], "["))
        I = skipBalanced(T, I, "[", "]");
      else if (isPunct(T[I], "{"))
        I = skipBalanced(T, I, "{", "}");
      else if (isPunct(T[I], ";"))
        return I + 1;
      else
        ++I;
    }
    return T.size();
  }

  /// One dispatch step of the top-level walk. Returns the resume index.
  std::size_t step(std::size_t I) {
    const Token &Tok = T[I];
    if (Tok.Kind == TokenKind::Directive) {
      recordInclude(Tok.Text);
      return I + 1;
    }
    if (Tok.Kind == TokenKind::Literal)
      return I + 1;
    if (Tok.Kind == TokenKind::Punct) {
      if (Tok.Text == "{") {
        Scopes.push_back({Scope::Block, "", false});
        return I + 1;
      }
      if (Tok.Text == "}") {
        if (!Scopes.empty())
          Scopes.pop_back();
        return I + 1;
      }
      if (Tok.Text == ";")
        clearPending();
      return I + 1;
    }
    const std::string &S = Tok.Text;
    if (S == "namespace")
      return parseNamespace(I);
    if (S == "class" || S == "struct" || S == "union")
      return parseClass(I);
    if (S == "enum")
      return parseEnum(I);
    if (S == "using" || S == "typedef" || S == "friend" ||
        S == "static_assert") {
      clearPending();
      return skipToSemi(I);
    }
    if (S == "template") {
      if (nextIs(T, I, "<"))
        return skipBalanced(T, I + 1, "<", ">");
      return I + 1;
    }
    if (S == "REGMON_HOT") {
      PendingHot = true;
      return I + 1;
    }
    if (S == "REGMON_PURE") {
      PendingPure = true;
      return I + 1;
    }
    if (S == "static") {
      PendingStatic = true;
      return I + 1;
    }
    if (S == "extern" || S == "inline" || S == "virtual" ||
        S == "explicit" || S == "public" || S == "protected" ||
        S == "private")
      return I + 1;
    return parseDeclaration(I);
  }

  void recordInclude(const std::string &Text) {
    std::size_t At = Text.find("include");
    if (At == std::string::npos)
      return;
    std::size_t Open = Text.find('"', At);
    if (Open == std::string::npos)
      return;
    std::size_t Close = Text.find('"', Open + 1);
    if (Close == std::string::npos)
      return;
    Out.Includes.push_back(Text.substr(Open + 1, Close - Open - 1));
  }

  std::size_t parseNamespace(std::size_t I) {
    std::size_t J = I + 1;
    std::string Name;
    while (J < T.size() &&
           (T[J].Kind == TokenKind::Identifier || isPunct(T[J], "::"))) {
      if (T[J].Kind == TokenKind::Identifier) {
        if (!Name.empty())
          Name += "::";
        Name += T[J].Text;
      }
      ++J;
    }
    if (J < T.size() && isPunct(T[J], "{")) {
      Scopes.push_back({Scope::Ns, Name, Name.empty()});
      return J + 1;
    }
    // namespace alias (`namespace a = b::c;`) or malformed: statement off
    return skipToSemi(J);
  }

  std::size_t parseClass(std::size_t I) {
    std::size_t J = I + 1;
    std::string Name;
    while (J < T.size()) {
      if (isPunct(T[J], "[")) {
        J = skipBalanced(T, J, "[", "]"); // [[attributes]]
        continue;
      }
      if (gnuAttributeAt(J)) {
        J = skipBalanced(T, J + 1, "(", ")");
        continue;
      }
      if (T[J].Kind == TokenKind::Identifier && T[J].Text != "final" &&
          T[J].Text != "alignas") {
        if (Name.empty()) {
          Name = T[J].Text;
          ++J;
          continue;
        }
      }
      break;
    }
    // Find the defining `{`; a `;` first means forward declaration or an
    // elaborated-type variable (`struct tm Buf;`) — either way, no scope.
    std::size_t ColonAt = 0;
    std::size_t K = J;
    while (K < T.size()) {
      if (isPunct(T[K], "<")) {
        K = skipBalanced(T, K, "<", ">");
        continue;
      }
      if (isPunct(T[K], "(")) {
        K = skipBalanced(T, K, "(", ")");
        continue;
      }
      if (isPunct(T[K], ";")) {
        clearPending();
        return K + 1;
      }
      if (isPunct(T[K], "{"))
        break;
      if (isPunct(T[K], ":") && ColonAt == 0)
        ColonAt = K;
      ++K;
    }
    if (K >= T.size())
      return T.size();
    std::vector<std::string> Bases;
    if (ColonAt != 0) {
      std::string Last;
      for (std::size_t B = ColonAt + 1; B < K; ++B) {
        if (isPunct(T[B], "<")) {
          B = skipBalanced(T, B, "<", ">") - 1;
          continue;
        }
        if (T[B].Kind == TokenKind::Identifier &&
            !oneOf(T[B].Text, {"public", "protected", "private", "virtual"}))
          Last = T[B].Text;
        if (isPunct(T[B], ",") && !Last.empty()) {
          Bases.push_back(Last);
          Last.clear();
        }
      }
      if (!Last.empty())
        Bases.push_back(Last);
    }
    if (!Name.empty())
      Out.Classes[Name] = Bases;
    Scopes.push_back({Scope::Class, Name, false});
    clearPending();
    return K + 1;
  }

  std::size_t parseEnum(std::size_t I) {
    std::size_t J = I + 1;
    while (J < T.size() && !isPunct(T[J], "{") && !isPunct(T[J], ";"))
      ++J;
    if (J < T.size() && isPunct(T[J], "{"))
      J = skipBalanced(T, J, "{", "}");
    clearPending();
    return J; // trailing `;` handled by the main loop
  }

  void recordVariable(const std::string &Name, bool Const) {
    if (Name.empty() || Const)
      return;
    for (const Scope &S : Scopes)
      if (S.K != Scope::Ns)
        return; // class members and block locals are not globals
    Out.MutableGlobals.insert(Name);
  }

  /// A declaration that is not introduced by a structural keyword: a
  /// variable, a function, or noise. Scans forward collecting qualifiers
  /// until the shape resolves.
  std::size_t parseDeclaration(std::size_t Start) {
    std::size_t I = Start;
    bool Const = false;
    std::string LastIdent;
    while (I < T.size()) {
      const Token &Tok = T[I];
      if (Tok.Kind == TokenKind::Directive || Tok.Kind == TokenKind::Literal) {
        ++I;
        continue;
      }
      if (gnuAttributeAt(I)) {
        I = skipBalanced(T, I + 1, "(", ")");
        continue;
      }
      if (Tok.Kind == TokenKind::Identifier) {
        const std::string &S = Tok.Text;
        if (S == "const" || S == "constexpr" || S == "constinit")
          Const = true;
        else if (S == "REGMON_HOT")
          PendingHot = true;
        else if (S == "REGMON_PURE")
          PendingPure = true;
        else if (S == "static")
          PendingStatic = true;
        else
          LastIdent = S;
        ++I;
        continue;
      }
      const std::string &P = Tok.Text;
      if (P == "<") {
        I = skipBalanced(T, I, "<", ">");
        continue;
      }
      if (P == "[") {
        I = skipBalanced(T, I, "[", "]");
        continue;
      }
      if (P == "(") {
        if (std::size_t Next = tryFunction(I))
          return Next;
        I = skipBalanced(T, I, "(", ")");
        continue;
      }
      if (P == ";") {
        recordVariable(LastIdent, Const);
        clearPending();
        return I + 1;
      }
      if (P == "=") {
        recordVariable(LastIdent, Const);
        clearPending();
        return skipToSemi(I);
      }
      if (P == "{") {
        // Brace initializer on a variable (`Foo X{1};`).
        recordVariable(LastIdent, Const);
        clearPending();
        return skipToSemi(I);
      }
      ++I;
    }
    clearPending();
    return T.size();
  }

  /// Member-initializer list scan: after the ctor's `:`, a `{` preceded by
  /// an identifier or `>` is a member brace-init (`Field{...}`); a `{`
  /// preceded by `)` or `}` (or `,`... impossible) opens the body.
  std::size_t findCtorBody(std::size_t J) const {
    while (J < T.size()) {
      if (isPunct(T[J], "(")) {
        J = skipBalanced(T, J, "(", ")");
        continue;
      }
      if (isPunct(T[J], "<")) {
        J = skipBalanced(T, J, "<", ">");
        continue;
      }
      if (isPunct(T[J], "{")) {
        if (J > 0 && (T[J - 1].Kind == TokenKind::Identifier ||
                      isPunct(T[J - 1], ">"))) {
          J = skipBalanced(T, J, "{", "}");
          continue;
        }
        return J;
      }
      if (isPunct(T[J], ";"))
        return 0; // lost: not a ctor-init after all
      ++J;
    }
    return 0;
  }

  /// Called when parseDeclaration meets `(`. Decides whether the tokens
  /// before it name a function declarator; if so consumes the whole
  /// declaration (or definition) and returns the resume index, else 0.
  std::size_t tryFunction(std::size_t OpenParen) {
    if (OpenParen == 0)
      return 0;
    std::string Name;
    std::size_t Back; // index of the first token of the name
    const Token &Prev = T[OpenParen - 1];
    if (Prev.Kind == TokenKind::Identifier) {
      Name = Prev.Text;
      Back = OpenParen - 1;
    } else if (Prev.Kind == TokenKind::Punct && OpenParen >= 2 &&
               isId(T[OpenParen - 2], "operator")) {
      Name = "operator" + Prev.Text;
      Back = OpenParen - 2;
    } else {
      return 0; // `)(`, `](` etc: an expression, not a declarator
    }
    if (oneOf(Name, {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "alignof", "noexcept", "decltype", "assert",
                     "throw", "new", "delete"}))
      return 0;
    if (Back >= 1 && isPunct(T[Back - 1], "~")) {
      Name = "~" + Name;
      --Back;
    }
    std::vector<std::string> Quals;
    while (Back >= 2 && isPunct(T[Back - 1], "::") &&
           T[Back - 2].Kind == TokenKind::Identifier) {
      Quals.insert(Quals.begin(), T[Back - 2].Text);
      Back -= 2;
    }

    std::size_t AfterParams = skipBalanced(T, OpenParen, "(", ")");

    // Scan the declarator trailer: `const noexcept(...) override -> T` up
    // to `{` (definition), `;` (declaration), `=` (default/delete/pure),
    // or `:` (ctor-init list). Anything else means "not one function".
    std::size_t J = AfterParams;
    std::size_t BodyAt = 0;
    std::size_t Resume = 0;
    bool IsDecl = false;
    while (J < T.size()) {
      const Token &Tk = T[J];
      if (Tk.Kind == TokenKind::Identifier) {
        if (Tk.Text == "noexcept" && nextIs(T, J, "(")) {
          J = skipBalanced(T, J + 1, "(", ")");
          continue;
        }
        ++J;
        continue;
      }
      if (Tk.Kind != TokenKind::Punct) {
        ++J;
        continue;
      }
      const std::string &P = Tk.Text;
      if (P == "->" || P == "::" || P == "&" || P == "&&" || P == "*") {
        ++J;
        continue;
      }
      if (P == "<") {
        J = skipBalanced(T, J, "<", ">");
        continue;
      }
      if (P == "[") {
        J = skipBalanced(T, J, "[", "]");
        continue;
      }
      if (P == "(") {
        J = skipBalanced(T, J, "(", ")");
        continue;
      }
      if (P == ";") {
        IsDecl = true;
        Resume = J + 1;
        break;
      }
      if (P == "=") {
        IsDecl = true; // `= default;` / `= delete;` / `= 0;`
        Resume = skipToSemi(J);
        break;
      }
      if (P == ":") {
        BodyAt = findCtorBody(J + 1);
        break;
      }
      if (P == "{") {
        BodyAt = J;
        break;
      }
      return 0; // `,` (multi-declarator / expression) and the rest
    }
    if (J >= T.size())
      return 0;
    if (!IsDecl && (BodyAt == 0 || !isPunct(T[BodyAt], "{")))
      return 0;

    ParsedFunction F;
    F.Name = Name;
    F.Scope = nsScope();
    F.Line = T[Back].Line;
    F.Hot = PendingHot;
    F.Pure = PendingPure;
    if (!Quals.empty())
      F.ClassName = Quals.back(); // may be a namespace; the graph demotes
    else
      F.ClassName = enclosingClass();
    F.Internal =
        inAnonymousNs() || (PendingStatic && !inClass() && Quals.empty());
    clearPending();
    if (IsDecl) {
      Out.Functions.push_back(std::move(F));
      return Resume;
    }
    F.HasBody = true;
    F.BodyBegin = BodyAt;
    F.BodyEnd = skipBalanced(T, BodyAt, "{", "}");
    std::size_t End = F.BodyEnd;
    Out.Functions.push_back(std::move(F));
    return End;
  }
};

} // namespace

ParsedFile parseFile(const FileContext &FC) { return Walker(FC).run(); }

} // namespace regmon::lint
