//===- tools/lint/Effects.cpp - Per-function effect extraction ------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Effects.h"

#include "TokenUtil.h"

using namespace regmon::lint;

namespace regmon::lint {

const char *effectName(unsigned Bit) {
  switch (Bit) {
  case EffAlloc:
    return "alloc";
  case EffNondet:
    return "nondet";
  case EffConcurrency:
    return "concurrency";
  case EffIo:
    return "io";
  case EffGlobalWrite:
    return "global-write";
  case EffIndirect:
    return "indirect-call";
  }
  return "?";
}

std::string effectList(unsigned Mask) {
  std::string S;
  for (unsigned Bit : {EffAlloc, EffNondet, EffConcurrency, EffIo,
                       EffGlobalWrite, EffIndirect})
    if (Mask & Bit) {
      if (!S.empty())
        S += ",";
      S += effectName(Bit);
    }
  return S;
}

} // namespace regmon::lint

namespace {

bool isCallKeyword(const std::string &S) {
  return oneOf(S, {"if", "for", "while", "switch", "catch", "return",
                   "co_return", "sizeof", "alignof", "noexcept", "decltype",
                   "assert", "static_assert", "throw", "new", "delete",
                   "defined", "alignas", "typeid"});
}

} // namespace

FunctionFacts regmon::lint::extractFacts(
    const FileContext &FC, const ParsedFunction &F,
    const std::set<std::string> &MutableGlobals) {
  FunctionFacts Facts;
  const std::vector<Token> &T = FC.Tokens;
  auto addEffect = [&](unsigned Bit, int Line, std::string Detail) {
    Facts.Direct |= Bit;
    Facts.Evidence.push_back(EffectEvidence{Bit, Line, std::move(Detail)});
  };
  const std::size_t End = F.BodyEnd < T.size() ? F.BodyEnd : T.size();
  for (std::size_t I = F.BodyBegin; I < End; ++I) {
    if (T[I].Kind != TokenKind::Identifier)
      continue;
    const std::string &Name = T[I].Text;
    const bool Member =
        I > 0 && (isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->"));
    const bool Arrow = I > 0 && isPunct(T[I - 1], "->");
    const bool ThisCall = Arrow && I >= 2 && isId(T[I - 2], "this");
    const bool Call = nextIs(T, I, "(");

    // Allocation.
    if (Name == "new" && isStdOrUnqualified(T, I)) {
      addEffect(EffAlloc, T[I].Line, "operator new");
      continue;
    }
    if (Call && isStdOrUnqualified(T, I) && looksLikeCall(T, I) &&
        oneOf(Name, {"malloc", "calloc", "realloc", "aligned_alloc"})) {
      addEffect(EffAlloc, T[I].Line, Name + "()");
      continue;
    }
    if (isStdOrUnqualified(T, I) &&
        oneOf(Name, {"make_unique", "make_shared"})) {
      addEffect(EffAlloc, T[I].Line, "std::" + Name);
      continue;
    }
    if (Call && Member &&
        oneOf(Name, {"push_back", "emplace_back", "emplace", "resize",
                     "reserve", "insert"}))
      // Container growth; falls through — the name is also a call site in
      // case it resolves to a repo method of the same name.
      addEffect(EffAlloc, T[I].Line, "container growth ." + Name + "()");

    // Nondeterminism: the same sources NondeterminismRule flags per-file.
    if (Call && isStdOrUnqualified(T, I) && looksLikeCall(T, I) &&
        oneOf(Name,
              {"rand", "srand", "rand_r", "drand48", "lrand48", "mrand48"}))
      addEffect(EffNondet, T[I].Line, Name + "()");
    else if (Call && isStdOrUnqualified(T, I) && looksLikeCall(T, I) &&
             oneOf(Name, {"time", "clock", "gettimeofday", "clock_gettime",
                          "localtime", "gmtime", "mktime", "ctime"}))
      addEffect(EffNondet, T[I].Line, Name + "()");
    else if (oneOf(Name, {"steady_clock", "system_clock",
                          "high_resolution_clock", "file_clock",
                          "utc_clock"}) &&
             I + 2 < T.size() && isPunct(T[I + 1], "::") &&
             isId(T[I + 2], "now"))
      addEffect(EffNondet, T[I].Line, "std::chrono::" + Name + "::now()");
    else if (Name == "random_device" && isStdOrUnqualified(T, I))
      addEffect(EffNondet, T[I].Line, "std::random_device");

    // Concurrency primitives (std-qualified, like ConcurrencyRule).
    if (isStdQualified(T, I) &&
        oneOf(Name,
              {"thread", "jthread", "mutex", "recursive_mutex",
               "timed_mutex", "shared_mutex", "condition_variable",
               "condition_variable_any", "atomic", "atomic_flag",
               "atomic_ref", "future", "promise", "async", "lock_guard",
               "unique_lock", "scoped_lock", "shared_lock", "latch",
               "barrier", "counting_semaphore", "binary_semaphore"}))
      addEffect(EffConcurrency, T[I].Line, "std::" + Name);

    // I/O.
    if (Call && isStdOrUnqualified(T, I) && looksLikeCall(T, I) &&
        oneOf(Name, {"fopen", "fclose", "fwrite", "fread", "fprintf",
                     "printf", "fputs", "puts", "fgets", "fscanf", "scanf",
                     "fflush", "fseek", "ftell", "remove", "rename",
                     "getenv", "system"}))
      addEffect(EffIo, T[I].Line, Name + "()");
    else if (isStdQualified(T, I) &&
             oneOf(Name, {"cout", "cerr", "cin", "clog", "ofstream",
                          "ifstream", "fstream", "filesystem"}))
      addEffect(EffIo, T[I].Line, "std::" + Name);
    else if (Call && isGlobalOrUnqualified(T, I) && looksLikeCall(T, I) &&
             oneOf(Name, {"open", "close", "write", "writev", "pwrite",
                          "pwritev"}))
      // The POSIX file calls of the unbuffered sink (persist/Io.cpp) and
      // the write family the persist rule checks. The graph does not
      // resolve them, and an unresolved callee reads as effect-free, so
      // they are named here.
      addEffect(EffIo, T[I].Line, Name + "()");

    // Writes to this file's namespace-scope mutable variables.
    if (!Member && MutableGlobals.count(Name) != 0 &&
        (I == 0 || !isPunct(T[I - 1], "::"))) {
      bool Write =
          (I + 1 < T.size() && T[I + 1].Kind == TokenKind::Punct &&
           oneOf(T[I + 1].Text, {"=", "+=", "-=", "*=", "/=", "%=", "&=",
                                 "|=", "^=", "<<=", ">>=", "++", "--"})) ||
          (I > 0 && (isPunct(T[I - 1], "++") || isPunct(T[I - 1], "--")));
      if (Write)
        addEffect(EffGlobalWrite, T[I].Line,
                  "write to file-scope '" + Name + "'");
    }

    // Indirect calls and the call-site list for the resolver.
    if (Call && !isCallKeyword(Name)) {
      if (Arrow && !ThisCall)
        addEffect(EffIndirect, T[I].Line, "->" + Name + "()");
      CallSiteInfo CS;
      CS.Name = Name;
      CS.Member = Member;
      CS.Arrow = Arrow;
      CS.ThisCall = ThisCall;
      CS.Line = T[I].Line;
      if (!Member && I >= 2 && isPunct(T[I - 1], "::") &&
          T[I - 2].Kind == TokenKind::Identifier) {
        CS.Qualifier = T[I - 2].Text;
        std::size_t Q = I - 2;
        while (Q >= 2 && isPunct(T[Q - 1], "::") &&
               T[Q - 2].Kind == TokenKind::Identifier)
          Q -= 2;
        CS.StdQualified = T[Q].Text == "std";
      }
      Facts.Calls.push_back(std::move(CS));
    }
  }
  return Facts;
}
