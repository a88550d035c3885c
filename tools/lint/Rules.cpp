//===- tools/lint/Rules.cpp - regmon-lint rule implementations ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project rules. Each rule is a token-stream scan over one file; the
/// layer matrix at the top of each check() encodes where the rule applies.
/// To add a rule: implement the Rule interface, append it in allRules(),
/// give it a fixture pair in tests/lint_fixtures/, and document it in
/// DESIGN.md §8.
///
//===----------------------------------------------------------------------===//

#include "Lint.h"

#include "CallGraph.h"
#include "Effects.h"
#include "TokenUtil.h"

#include <algorithm>
#include <functional>

namespace regmon::lint {

namespace {

void addDiag(const FileContext &FC, std::vector<Diagnostic> &Out,
             std::string_view RuleName, int Line, std::string Message) {
  Out.push_back(Diagnostic{std::string(RuleName), FC.Path, Line,
                           std::move(Message),
                           normalizeLine(FC.line(Line)), false});
}

//===----------------------------------------------------------------------===//
// R1: nondeterminism — wall clocks and libc randomness are banned in the
// layers whose outputs must replay bit-identically.
//===----------------------------------------------------------------------===//

class NondeterminismRule final : public Rule {
public:
  std::string_view name() const override { return "nondeterminism"; }
  std::string_view description() const override {
    return "bans std::rand/time()/clock-now and std::random_device in the "
           "deterministic layers (src/core, src/sim, src/gpd, src/sampling); "
           "randomness must come from support/Rng";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    bool Deterministic = FC.L == Layer::Deterministic;
    // random_device is additionally banned in every non-test production
    // layer except support/Rng itself: a seed drawn from it anywhere
    // upstream destroys replayability of whole experiments.
    bool RdBanned = (Deterministic || FC.L == Layer::Support ||
                     FC.L == Layer::Service || FC.L == Layer::Obs ||
                     FC.L == Layer::Tools) &&
                    FC.Path.find("support/Rng") == std::string::npos;
    if (!Deterministic && !RdBanned)
      return;
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind != TokenKind::Identifier)
        continue;
      const std::string &Name = T[I].Text;
      if (RdBanned && Name == "random_device" &&
          isStdOrUnqualified(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "std::random_device breaks replay determinism; seed a "
                "regmon::Rng (support/Rng.h) explicitly instead");
        continue;
      }
      if (!Deterministic)
        continue;
      if (oneOf(Name, {"rand", "srand", "rand_r", "drand48", "lrand48",
                       "mrand48"}) &&
          nextIs(T, I, "(") && isStdOrUnqualified(T, I) &&
          looksLikeCall(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "libc randomness (" + Name +
                    ") is nondeterministic across platforms; use "
                    "regmon::Rng from support/Rng.h");
        continue;
      }
      if (oneOf(Name, {"time", "clock", "gettimeofday", "clock_gettime",
                       "localtime", "gmtime", "mktime", "ctime"}) &&
          nextIs(T, I, "(") && isStdOrUnqualified(T, I) &&
          looksLikeCall(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "wall-clock call (" + Name +
                    ") in a deterministic layer; thread simulated time "
                    "through explicitly");
        continue;
      }
      if (oneOf(Name, {"steady_clock", "system_clock",
                       "high_resolution_clock", "file_clock", "utc_clock"}) &&
          I + 2 < T.size() && isPunct(T[I + 1], "::") &&
          isId(T[I + 2], "now")) {
        addDiag(FC, Out, name(), T[I].Line,
                "std::chrono::" + Name +
                    "::now() in a deterministic layer; timing belongs in "
                    "bench/ or src/service");
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R2a: concurrency — threads, locks and atomics live in src/service only
// (tests and bench may use them freely to exercise the service).
//===----------------------------------------------------------------------===//

class ConcurrencyRule final : public Rule {
public:
  std::string_view name() const override { return "concurrency"; }
  std::string_view description() const override {
    return "confines std::thread/std::mutex/std::atomic and friends to "
           "src/service (tests and bench exempt)";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    if (FC.L != Layer::Deterministic && FC.L != Layer::Support &&
        FC.L != Layer::Tools)
      return;
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind == TokenKind::Directive) {
        for (std::string_view Header :
             {"<thread>", "<mutex>", "<shared_mutex>", "<condition_variable>",
              "<atomic>", "<future>", "<semaphore>", "<barrier>", "<latch>",
              "<stop_token>"}) {
          if (T[I].Text.find("include") != std::string::npos &&
              T[I].Text.find(Header) != std::string::npos) {
            addDiag(FC, Out, name(), T[I].Line,
                    "include of " + std::string(Header) +
                        " outside src/service; concurrency is confined to "
                        "the service layer");
            break;
          }
        }
        continue;
      }
      if (T[I].Kind != TokenKind::Identifier || !isStdQualified(T, I))
        continue;
      if (oneOf(T[I].Text,
                {"thread", "jthread", "mutex", "recursive_mutex",
                 "timed_mutex", "shared_mutex", "condition_variable",
                 "condition_variable_any", "atomic", "atomic_flag",
                 "atomic_ref", "future", "promise", "async", "lock_guard",
                 "unique_lock", "scoped_lock", "shared_lock", "latch",
                 "barrier", "counting_semaphore", "binary_semaphore"})) {
        addDiag(FC, Out, name(), T[I].Line,
                "std::" + T[I].Text +
                    " outside src/service; move the concurrency into the "
                    "service layer or mark an explicit exception");
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R2b: memory-order — every atomic access spells out its ordering. The
// service's snapshot-consistency argument (DESIGN.md §7) is written in
// terms of explicit acquire/release pairs; a defaulted seq_cst access is
// almost always an unreviewed one.
//===----------------------------------------------------------------------===//

class MemoryOrderRule final : public Rule {
public:
  std::string_view name() const override { return "memory-order"; }
  std::string_view description() const override {
    return "requires an explicit std::memory_order argument on every "
           "atomic load/store/exchange/fetch_* call";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind != TokenKind::Identifier ||
          !oneOf(T[I].Text,
                 {"load", "store", "exchange", "fetch_add", "fetch_sub",
                  "fetch_and", "fetch_or", "fetch_xor",
                  "compare_exchange_weak", "compare_exchange_strong"}))
        continue;
      // Only member calls: `x.load(...)` / `p->fetch_add(...)`.
      if (I == 0 || !(isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->")))
        continue;
      if (!nextIs(T, I, "("))
        continue;
      std::size_t End = skipBalanced(T, I + 1, "(", ")");
      bool HasOrder = false;
      for (std::size_t J = I + 2; J + 1 < End; ++J)
        if (T[J].Kind == TokenKind::Identifier &&
            T[J].Text.find("memory_order") != std::string::npos) {
          HasOrder = true;
          break;
        }
      if (!HasOrder)
        addDiag(FC, Out, name(), T[I].Line,
                "atomic ." + T[I].Text +
                    "() without an explicit std::memory_order; defaulted "
                    "seq_cst hides the intended synchronization contract");
    }
  }
};

//===----------------------------------------------------------------------===//
// R3: iteration-order — range-for over an unordered container whose body
// appends to a result vector or stream makes output depend on hash-table
// layout, which varies across libstdc++ versions and ASLR.
//===----------------------------------------------------------------------===//

class IterationOrderRule final : public Rule {
public:
  std::string_view name() const override { return "iteration-order"; }
  std::string_view description() const override {
    return "flags range-for loops over unordered containers whose bodies "
           "append to result vectors or streams";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    if (FC.L == Layer::Bench || FC.L == Layer::Tests)
      return;
    const std::vector<Token> &T = FC.Tokens;
    // Pass 1: names declared with an unordered container type.
    std::set<std::string> UnorderedVars;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind != TokenKind::Identifier ||
          !oneOf(T[I].Text, {"unordered_map", "unordered_set",
                             "unordered_multimap", "unordered_multiset"}))
        continue;
      if (!nextIs(T, I, "<"))
        continue;
      std::size_t J = skipBalanced(T, I + 1, "<", ">");
      while (J < T.size() &&
             (isPunct(T[J], "&") || isPunct(T[J], "*") || isId(T[J], "const")))
        ++J;
      if (J < T.size() && T[J].Kind == TokenKind::Identifier)
        UnorderedVars.insert(T[J].Text);
    }
    // Pass 2: range-fors whose range names one of those variables (or an
    // inline unordered temporary) and whose body emits results.
    for (std::size_t I = 0; I + 1 < T.size(); ++I) {
      if (!isId(T[I], "for") || !isPunct(T[I + 1], "("))
        continue;
      std::size_t HeadEnd = skipBalanced(T, I + 1, "(", ")");
      std::size_t Colon = 0;
      int Depth = 0;
      for (std::size_t J = I + 1; J + 1 < HeadEnd; ++J) {
        if (isPunct(T[J], "(") || isPunct(T[J], "[") || isPunct(T[J], "{"))
          ++Depth;
        else if (isPunct(T[J], ")") || isPunct(T[J], "]") ||
                 isPunct(T[J], "}"))
          --Depth;
        else if (Depth == 1 && isPunct(T[J], ":")) {
          Colon = J;
          break;
        }
      }
      if (Colon == 0)
        continue;
      bool RangeUnordered = false;
      for (std::size_t J = Colon + 1; J + 1 < HeadEnd; ++J) {
        if (T[J].Kind == TokenKind::Identifier &&
            (UnorderedVars.count(T[J].Text) != 0 ||
             oneOf(T[J].Text, {"unordered_map", "unordered_set",
                               "unordered_multimap", "unordered_multiset"}))) {
          RangeUnordered = true;
          break;
        }
      }
      if (!RangeUnordered || HeadEnd >= T.size())
        continue;
      // Body: braced block or single statement.
      std::size_t BodyBegin = HeadEnd, BodyEnd;
      if (isPunct(T[BodyBegin], "{")) {
        BodyEnd = skipBalanced(T, BodyBegin, "{", "}");
      } else {
        BodyEnd = BodyBegin;
        while (BodyEnd < T.size() && !isPunct(T[BodyEnd], ";"))
          ++BodyEnd;
      }
      for (std::size_t J = BodyBegin; J < BodyEnd; ++J) {
        bool Emits =
            (T[J].Kind == TokenKind::Identifier &&
             oneOf(T[J].Text,
                   {"push_back", "emplace_back", "emplace", "append"})) ||
            isPunct(T[J], "<<");
        if (Emits) {
          addDiag(FC, Out, name(), T[I].Line,
                  "range-for over an unordered container feeds "
                  "result-bearing output; iterate a sorted copy or switch "
                  "the container to std::map/std::set");
          break;
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R4a: header-hygiene — guards and namespace leaks.
//===----------------------------------------------------------------------===//

class HeaderHygieneRule final : public Rule {
public:
  std::string_view name() const override { return "header-hygiene"; }
  std::string_view description() const override {
    return "headers need an include guard (#pragma once or "
           "#ifndef/#define) and must not contain using namespace";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    if (!FC.IsHeader)
      return;
    const std::vector<Token> &T = FC.Tokens;
    bool Guarded = false;
    std::string PendingMacro;
    for (const Token &Tok : T) {
      if (Tok.Kind != TokenKind::Directive)
        continue;
      if (Tok.Text.find("pragma once") != std::string::npos) {
        Guarded = true;
        break;
      }
      if (!PendingMacro.empty()) {
        if (Tok.Text.find("define " + PendingMacro) != std::string::npos)
          Guarded = true;
        break; // only the first #ifndef/#define pair counts
      }
      std::size_t At = Tok.Text.find("ifndef ");
      if (At != std::string::npos) {
        PendingMacro = Tok.Text.substr(At + 7);
        std::size_t Sp = PendingMacro.find(' ');
        if (Sp != std::string::npos)
          PendingMacro.resize(Sp);
      }
    }
    if (!Guarded)
      addDiag(FC, Out, name(), 1,
              "header has no include guard (#pragma once or "
              "#ifndef/#define pair)");
    for (std::size_t I = 0; I + 1 < T.size(); ++I)
      if (isId(T[I], "using") && isId(T[I + 1], "namespace"))
        addDiag(FC, Out, name(), T[I].Line,
                "using namespace in a header leaks into every includer");
  }
};

//===----------------------------------------------------------------------===//
// R4b: assert-side-effects — asserts compiled out under NDEBUG must not
// change state, or release and debug builds diverge.
//===----------------------------------------------------------------------===//

class AssertSideEffectsRule final : public Rule {
public:
  std::string_view name() const override { return "assert-side-effects"; }
  std::string_view description() const override {
    return "bans ++/--/assignment inside assert(): the expression "
           "disappears under NDEBUG";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (!isId(T[I], "assert") || !nextIs(T, I, "("))
        continue;
      if (I > 0 && (isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->") ||
                    isPunct(T[I - 1], "::")))
        continue;
      std::size_t End = skipBalanced(T, I + 1, "(", ")");
      for (std::size_t J = I + 2; J + 1 < End; ++J) {
        if (T[J].Kind == TokenKind::Punct &&
            oneOf(T[J].Text, {"++", "--", "=", "+=", "-=", "*=", "/=", "%=",
                              "&=", "|=", "^=", "<<=", ">>="})) {
          addDiag(FC, Out, name(), T[I].Line,
                  "side effect ('" + T[J].Text +
                      "') inside assert(); the whole expression vanishes "
                      "under NDEBUG");
          break;
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R5: swallowed-exception — a catch (...) that neither rethrows nor
// propagates an error turns every failure into silent state corruption.
// The chaos suite injects faults on purpose; a handler that eats them
// would make the fault-accounting counters lie.
//===----------------------------------------------------------------------===//

class SwallowedExceptionRule final : public Rule {
public:
  std::string_view name() const override { return "swallowed-exception"; }
  std::string_view description() const override {
    return "flags catch (...) handlers in src/ that neither rethrow nor "
           "propagate an error value; silently swallowing an unknown "
           "exception hides faults";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    if (FC.L != Layer::Deterministic && FC.L != Layer::Support &&
        FC.L != Layer::Service)
      return;
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I + 2 < T.size(); ++I) {
      if (!isId(T[I], "catch") || !nextIs(T, I, "("))
        continue;
      std::size_t HeadEnd = skipBalanced(T, I + 1, "(", ")");
      // Only catch (...): a typed handler names the error it claims to
      // understand; the catch-all by construction does not.
      bool Ellipsis = false;
      for (std::size_t J = I + 2; J + 1 < HeadEnd; ++J)
        if (isPunct(T[J], "...")) {
          Ellipsis = true;
          break;
        }
      if (!Ellipsis || HeadEnd >= T.size() || !isPunct(T[HeadEnd], "{"))
        continue;
      std::size_t BodyEnd = skipBalanced(T, HeadEnd, "{", "}");
      bool Handles = false;
      for (std::size_t J = HeadEnd + 1; J + 1 < BodyEnd && !Handles; ++J) {
        if (T[J].Kind != TokenKind::Identifier)
          continue;
        if (oneOf(T[J].Text, {"throw", "rethrow_exception", "terminate",
                              "abort", "exit", "_Exit", "quick_exit",
                              "current_exception"}))
          Handles = true; // rethrown, latched, or fatal
        else if (T[J].Text == "return" && J + 1 < BodyEnd &&
                 !isPunct(T[J + 1], ";"))
          Handles = true; // propagates an error value to the caller
      }
      if (!Handles)
        addDiag(FC, Out, name(), T[I].Line,
                "catch (...) swallows the exception; rethrow, propagate an "
                "error value, or terminate -- silent absorption turns "
                "failures into state corruption");
    }
  }
};

//===----------------------------------------------------------------------===//
// R6: persist-serialization — src/persist and src/trace write bytes that
// outlive the process and must be readable by a differently built binary.
// Two classes of portability bugs are banned mechanically: platform-width
// integer types anywhere in the layer (a size_t field silently changes the
// wire layout between 32- and 64-bit builds), and dropped fwrite/fread
// return values (a short transfer is exactly how torn files announce
// themselves; ignoring it converts detectable corruption into silent
// corruption). The POSIX write calls the unbuffered sink makes (write,
// writev, pwrite, pwritev, unqualified or `::`-qualified) are held to the
// same check. src/trace joined the rule with the flight recorder: its
// record encoding is a wire format with the same portability contract as
// the journal's.
//===----------------------------------------------------------------------===//

class PersistSerializationRule final : public Rule {
public:
  std::string_view name() const override { return "persist-serialization"; }
  std::string_view description() const override {
    return "src/persist and src/trace only: use fixed-width integer types "
           "(no size_t/long/int -- the wire layout must not vary by "
           "platform) and check every fwrite/fread/write/writev return "
           "value";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    if (FC.Path.rfind("src/persist/", 0) != 0 &&
        FC.Path.rfind("src/trace/", 0) != 0)
      return;
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind != TokenKind::Identifier)
        continue;
      const std::string &Name = T[I].Text;
      if (oneOf(Name, {"size_t", "ssize_t", "ptrdiff_t", "time_t",
                       "intmax_t", "uintmax_t", "long", "short", "int",
                       "unsigned", "signed"}) &&
          isStdOrUnqualified(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "platform-width integer type '" + Name +
                    "' in serialization code; the on-disk layout must not "
                    "vary by platform -- use std::uint32_t/std::uint64_t");
        continue;
      }
      const bool Stdio = oneOf(Name, {"fwrite", "fread"}) &&
                         isStdOrUnqualified(T, I);
      const bool Posix =
          oneOf(Name, {"write", "writev", "pwrite", "pwritev"}) &&
          isGlobalOrUnqualified(T, I);
      if ((Stdio || Posix) && nextIs(T, I, "(")) {
        // The call expression starts at `std` when written std::fwrite,
        // and at the `::` of ::writev.
        std::size_t Start = I;
        if (isStdQualified(T, I))
          Start = I - 2;
        else if (I > 0 && isPunct(T[I - 1], "::"))
          Start = I - 1;
        // Statement position (or a discarding cast) means the transfer
        // count is dropped; any operator/assignment before the call
        // consumes it.
        bool Discarded = Start == 0;
        if (!Discarded) {
          const Token &Prev = T[Start - 1];
          Discarded = (Prev.Kind == TokenKind::Punct &&
                       oneOf(Prev.Text, {";", "{", "}", ")"})) ||
                      (Prev.Kind == TokenKind::Identifier &&
                       oneOf(Prev.Text, {"else", "do"})) ||
                      Prev.Kind == TokenKind::Directive;
        }
        if (Discarded)
          addDiag(FC, Out, name(), T[I].Line,
                  "unchecked " + Name +
                      "() return value; a short transfer is how torn files "
                      "are detected -- compare it against the requested "
                      "count");
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R7: obs-determinism — src/obs exports must be a pure function of the
// instrumented workload. Two mechanical bans keep them that way: wall
// clocks (the interval index is the only notion of time; a timestamped
// export can never be byte-stable across runs), and unordered containers
// (export enumeration riding hash layout varies across libstdc++ versions
// and ASLR; the registry iterates std::map by design).
//===----------------------------------------------------------------------===//

class ObsDeterminismRule final : public Rule {
public:
  std::string_view name() const override { return "obs-determinism"; }
  std::string_view description() const override {
    return "src/obs only: bans wall-clock reads (logical interval indices "
           "are the only clock) and unordered containers (export order "
           "must not depend on hash layout)";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    if (FC.L != Layer::Obs)
      return;
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind == TokenKind::Directive) {
        if (T[I].Text.find("include") != std::string::npos &&
            T[I].Text.find("<unordered_") != std::string::npos)
          addDiag(FC, Out, name(), T[I].Line,
                  "unordered container header in src/obs; metric and event "
                  "enumeration must use std::map/std::set so exports are "
                  "byte-stable");
        continue;
      }
      if (T[I].Kind != TokenKind::Identifier)
        continue;
      const std::string &Name = T[I].Text;
      if (oneOf(Name, {"unordered_map", "unordered_set", "unordered_multimap",
                       "unordered_multiset"}) &&
          isStdOrUnqualified(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "std::" + Name +
                    " in src/obs; hash iteration order would leak into "
                    "exported bytes -- use std::map/std::set");
        continue;
      }
      if (oneOf(Name, {"time", "clock", "gettimeofday", "clock_gettime",
                       "localtime", "gmtime", "mktime", "ctime"}) &&
          nextIs(T, I, "(") && isStdOrUnqualified(T, I) &&
          looksLikeCall(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "wall-clock call (" + Name +
                    ") in src/obs; the instrumented subsystem's interval "
                    "index is the only clock exports may carry");
        continue;
      }
      if (oneOf(Name, {"steady_clock", "system_clock",
                       "high_resolution_clock", "file_clock", "utc_clock"}) &&
          I + 2 < T.size() && isPunct(T[I + 1], "::") &&
          isId(T[I + 2], "now")) {
        addDiag(FC, Out, name(), T[I].Line,
                "std::chrono::" + Name +
                    "::now() in src/obs; timestamped metrics can never "
                    "export byte-identically across runs");
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// R10: hotpath — functions tagged REGMON_HOT (support/HotpathKernels.h)
// run once per sample or per interval end; heap allocation or an indirect
// member call in one of them silently undoes the flat-kernel design.
//===----------------------------------------------------------------------===//

class HotpathRule final : public Rule {
public:
  std::string_view name() const override { return "hotpath"; }
  std::string_view description() const override {
    return "src/core, src/gpd, src/sampling, src/sim, src/support: bans "
           "heap allocation (new/malloc/make_unique), container growth "
           "(push_back/resize/...), and indirect member calls (p->f()) "
           "inside function bodies tagged REGMON_HOT";
  }

  void check(const FileContext &FC, std::vector<Diagnostic> &Out) const override {
    if (FC.L != Layer::Deterministic && FC.L != Layer::Support)
      return;
    const std::vector<Token> &T = FC.Tokens;
    for (std::size_t I = 0; I < T.size(); ++I) {
      if (!isId(T[I], "REGMON_HOT"))
        continue;
      // Walk the signature to the body: skip balanced parens (parameter
      // lists, noexcept clauses); a `;` first means a bare declaration.
      std::size_t J = I + 1;
      // The tag's own definition line (`#define REGMON_HOT`) is a
      // directive token, never an identifier, so it cannot land here.
      while (J < T.size() && !isPunct(T[J], "{") && !isPunct(T[J], ";")) {
        if (isPunct(T[J], "("))
          J = skipBalanced(T, J, "(", ")");
        else
          ++J;
      }
      if (J >= T.size() || isPunct(T[J], ";"))
        continue;
      const std::size_t BodyEnd = skipBalanced(T, J, "{", "}");
      checkBody(FC, T, J, BodyEnd, Out);
      I = BodyEnd - 1;
    }
  }

private:
  void checkBody(const FileContext &FC, const std::vector<Token> &T,
                 std::size_t Begin, std::size_t End,
                 std::vector<Diagnostic> &Out) const {
    for (std::size_t I = Begin; I < End; ++I) {
      if (T[I].Kind != TokenKind::Identifier)
        continue;
      const std::string &Name = T[I].Text;
      if (Name == "new" && isStdOrUnqualified(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "operator new inside a REGMON_HOT function; the hot path "
                "must run allocation-free -- use pre-sized scratch owned "
                "by the caller");
        continue;
      }
      if (oneOf(Name, {"malloc", "calloc", "realloc", "aligned_alloc"}) &&
          nextIs(T, I, "(") && isStdOrUnqualified(T, I) &&
          looksLikeCall(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                Name + " inside a REGMON_HOT function; the hot path must "
                       "run allocation-free");
        continue;
      }
      if (oneOf(Name, {"make_unique", "make_shared"}) &&
          isStdOrUnqualified(T, I)) {
        addDiag(FC, Out, name(), T[I].Line,
                "std::" + Name +
                    " inside a REGMON_HOT function; the hot path must run "
                    "allocation-free");
        continue;
      }
      if (oneOf(Name, {"push_back", "emplace_back", "emplace", "resize",
                       "reserve", "insert"}) &&
          nextIs(T, I, "(") && I > Begin &&
          (isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->"))) {
        addDiag(FC, Out, name(), T[I].Line,
                "container growth (" + Name +
                    ") inside a REGMON_HOT function; it can reallocate "
                    "per sample -- size scratch buffers at interval start");
        continue;
      }
      // p->f(): an indirect member call. Virtual or not, the compiler
      // cannot keep the hot loop flat across an opaque pointer chase;
      // direct (`.`) member calls on locals and fields stay allowed.
      if (nextIs(T, I, "(") && I > Begin && isPunct(T[I - 1], "->")) {
        addDiag(FC, Out, name(), T[I].Line,
                "indirect member call (->" + Name +
                    ") inside a REGMON_HOT function; hot-path kernels must "
                    "not dispatch through pointers per sample");
      }
    }
  }
};

} // namespace

const std::vector<std::unique_ptr<Rule>> &allRules() {
  static const std::vector<std::unique_ptr<Rule>> Rules = [] {
    std::vector<std::unique_ptr<Rule>> R;
    R.push_back(std::make_unique<NondeterminismRule>());
    R.push_back(std::make_unique<ConcurrencyRule>());
    R.push_back(std::make_unique<MemoryOrderRule>());
    R.push_back(std::make_unique<IterationOrderRule>());
    R.push_back(std::make_unique<HeaderHygieneRule>());
    R.push_back(std::make_unique<AssertSideEffectsRule>());
    R.push_back(std::make_unique<SwallowedExceptionRule>());
    R.push_back(std::make_unique<PersistSerializationRule>());
    R.push_back(std::make_unique<ObsDeterminismRule>());
    R.push_back(std::make_unique<HotpathRule>());
    return R;
  }();
  return Rules;
}

std::vector<Diagnostic> runRules(const FileContext &FC) {
  std::vector<Diagnostic> Out;
  for (const std::unique_ptr<Rule> &R : allRules())
    R->check(FC, Out);
  // Drop inline-suppressed diagnostics.
  std::erase_if(Out, [&FC](const Diagnostic &D) {
    auto It = FC.Allowed.find(D.Line);
    if (It == FC.Allowed.end())
      return false;
    return It->second.count(D.Rule) != 0 || It->second.count("all") != 0;
  });
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     if (A.Line != B.Line)
                       return A.Line < B.Line;
                     return A.Rule < B.Rule;
                   });
  return Out;
}

//===----------------------------------------------------------------------===//
// Graph rules (R11-R13): run once over the whole-repo call graph instead
// of per file. Where the token rules pattern-match a body's own text, the
// graph rules *prove* the transitive contract: an annotated root is clean
// only if nothing reachable from it carries a banned effect. Findings are
// anchored at the root's declaration line (so the baseline key works like
// any other rule) and carry the full offending call chain in the message.
//===----------------------------------------------------------------------===//

namespace {

std::string_view effectNoun(unsigned Bit) {
  switch (Bit) {
  case EffAlloc:
    return "heap allocation";
  case EffNondet:
    return "nondeterminism (wall clock / libc rand / random_device)";
  case EffConcurrency:
    return "a concurrency primitive";
  case EffIo:
    return "I/O";
  case EffGlobalWrite:
    return "a write to file-scope mutable state";
  case EffIndirect:
    return "an indirect member call";
  }
  return "a banned effect";
}

} // namespace

const std::vector<GraphRuleInfo> &graphRules() {
  static const std::vector<GraphRuleInfo> Rules = {
      {"purity-hot",
       "everything transitively reachable from a REGMON_HOT body must be "
       "allocation-free, deterministic, and free of indirect calls"},
      {"purity",
       "REGMON_PURE functions must not transitively reach wall clocks, "
       "I/O, or writes to file-scope mutable state (allocation and "
       "layer-confined atomics are permitted)"},
      {"purity-confinement",
       "deterministic/support-layer functions must not transitively reach "
       "concurrency primitives that live outside src/service and src/obs"},
  };
  return Rules;
}

std::vector<Diagnostic>
runGraphRules(const CallGraph &G, const std::vector<FileContext> &Files) {
  std::vector<Diagnostic> Out;
  std::map<std::string, const FileContext *> ByPath;
  for (const FileContext &FC : Files)
    ByPath[FC.Path] = &FC;

  auto allowedAt = [&](const std::string &Path, int Line,
                       std::string_view RuleName) {
    auto It = ByPath.find(Path);
    if (It == ByPath.end())
      return false;
    auto AIt = It->second->Allowed.find(Line);
    if (AIt == It->second->Allowed.end())
      return false;
    return AIt->second.count(std::string(RuleName)) != 0 ||
           AIt->second.count("all") != 0;
  };

  // One diagnostic per (root, banned bit): shortest chain to a node whose
  // *direct* facts carry the bit. Inline `allow()` works at the root line
  // (waive the whole contract for this root) and at the evidence line
  // (exempt one known-benign effect for every root that reaches it).
  auto emit = [&](std::size_t RootIdx, std::string_view RuleName,
                  unsigned Bit, std::string_view Why,
                  const std::function<bool(const GraphNode &)> &TargetPred,
                  std::size_t MinChain) {
    const GraphNode &Root = G.nodes()[RootIdx];
    std::vector<std::size_t> Path = G.chain(RootIdx, TargetPred);
    if (Path.empty() || Path.size() < MinChain)
      return;
    const GraphNode &Target = G.nodes()[Path.back()];
    const EffectEvidence *Ev = nullptr;
    for (const EffectEvidence &E : Target.Evidence)
      if (E.Bit == Bit) {
        Ev = &E;
        break;
      }
    const int EvLine = Ev ? Ev->Line : Target.Line;
    if (allowedAt(Root.File, Root.Line, RuleName) ||
        allowedAt(Target.File, EvLine, RuleName))
      return;
    std::string Snippet;
    if (auto It = ByPath.find(Root.File); It != ByPath.end())
      Snippet = normalizeLine(It->second->line(Root.Line));
    std::string Msg = std::string(Why);
    Msg += effectNoun(Bit);
    Msg += ": ";
    Msg += G.formatChain(Path);
    Msg += " (";
    Msg += Target.File;
    Msg += ":";
    Msg += std::to_string(EvLine);
    Msg += ": ";
    Msg += Ev ? Ev->Detail : std::string(effectName(Bit));
    Msg += ")";
    Out.push_back(Diagnostic{std::string(RuleName), Root.File, Root.Line,
                             std::move(Msg), std::move(Snippet), false});
  };

  const std::vector<GraphNode> &Nodes = G.nodes();
  for (std::size_t NI = 0; NI < Nodes.size(); ++NI) {
    const GraphNode &N = Nodes[NI];
    if (N.Hot) {
      for (unsigned Bit : {EffAlloc, EffNondet, EffIndirect})
        if (N.Transitive & Bit)
          emit(
              NI, "purity-hot", Bit, "REGMON_HOT function reaches ",
              [Bit](const GraphNode &T) { return (T.Direct & Bit) != 0; },
              1);
    }
    if (N.Pure) {
      for (unsigned Bit : {EffNondet, EffIo, EffGlobalWrite})
        if (N.Transitive & Bit)
          emit(
              NI, "purity", Bit, "REGMON_PURE function reaches ",
              [Bit](const GraphNode &T) { return (T.Direct & Bit) != 0; },
              1);
    }
    // Concurrency confinement: a deterministic/support root may reach
    // atomics that *live* in their sanctioned homes (src/service, src/obs
    // -- and tests/bench exercising them), but not concurrency smuggled
    // into the deterministic layers through a helper. Direct usage
    // (chain length 1) is already the token `concurrency` rule's job.
    if ((N.L == Layer::Deterministic || N.L == Layer::Support) &&
        (N.Transitive & EffConcurrency) != 0)
      emit(
          NI, "purity-confinement", EffConcurrency,
          "deterministic-layer function reaches ",
          [](const GraphNode &T) {
            return (T.Direct & EffConcurrency) != 0 &&
                   T.L != Layer::Service && T.L != Layer::Obs &&
                   T.L != Layer::Tests && T.L != Layer::Bench;
          },
          2);
  }

  std::stable_sort(Out.begin(), Out.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     if (A.Path != B.Path)
                       return A.Path < B.Path;
                     if (A.Line != B.Line)
                       return A.Line < B.Line;
                     return A.Rule < B.Rule;
                   });
  return Out;
}

std::string ruleExplanation(std::string_view RuleName) {
  if (RuleName == "purity-hot")
    return "purity-hot -- the REGMON_HOT transitive contract\n"
           "\n"
           "Functions tagged REGMON_HOT (support/Contracts.h) run once per\n"
           "sample or per interval end. The per-file `hotpath` rule scans\n"
           "only the tagged body's own tokens, so an allocation hidden one\n"
           "call below it -- or laundered through a pointer -- passes. This\n"
           "rule closes that hole: it builds the whole-repo call graph,\n"
           "propagates per-function effect sets to a fixed point, and\n"
           "reports any REGMON_HOT root that can transitively reach heap\n"
           "allocation, nondeterminism, or an indirect member call. The\n"
           "finding is anchored at the root and carries the full offending\n"
           "chain, e.g.\n"
           "    recomputeMoments -> helper -> grow (src/x.cpp:42: operator "
           "new)\n"
           "\n"
           "Fix by hoisting the allocation to the caller (pre-sized\n"
           "scratch), or exempt a known-benign site with\n"
           "`// regmon-lint: allow(purity-hot)` on the evidence line.";
  if (RuleName == "purity")
    return "purity -- the REGMON_PURE determinism contract\n"
           "\n"
           "REGMON_PURE marks the replay-critical decision paths: detector\n"
           "interval-end transitions, fault-plan draws, and similarity\n"
           "combines. Their outputs must be a pure function of their\n"
           "inputs, so nothing they transitively call may read wall\n"
           "clocks, libc randomness or std::random_device, perform I/O, or\n"
           "write file-scope mutable state. Allocation is deliberately\n"
           "allowed (adopting a phase table allocates) and so are atomics\n"
           "confined to src/obs (the observability counters are designed\n"
           "to be replay-stable); see purity-confinement for the latter.\n"
           "Violations print the full call chain from the annotated root\n"
           "to the offending token.";
  if (RuleName == "purity-confinement")
    return "purity-confinement -- concurrency stays in its sanctioned "
           "homes\n"
           "\n"
           "The per-file `concurrency` rule bans std::thread/mutex/atomic\n"
           "tokens from deterministic-layer files, but cannot see a helper\n"
           "defined elsewhere that wraps a mutex and is called from\n"
           "src/core. This rule checks reachability: a deterministic- or\n"
           "support-layer function must not transitively reach a function\n"
           "that directly uses a concurrency primitive unless that\n"
           "function lives in src/service or src/obs (or tests/bench).\n"
           "Chains of length 1 are the token rule's territory and are not\n"
           "re-reported here.";
  for (const std::unique_ptr<Rule> &R : allRules())
    if (R->name() == RuleName)
      return std::string(R->name()) + " -- " + std::string(R->description());
  return {};
}

} // namespace regmon::lint
