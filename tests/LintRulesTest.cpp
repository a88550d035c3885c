//===- tests/LintRulesTest.cpp - regmon-lint rules engine tests -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the regmon-lint rules engine over the fixture snippets in
/// tests/lint_fixtures/. Every rule gets at least one violating and one
/// conforming fixture, plus layer-gating, inline-suppression and
/// baseline round-trip coverage.
///
//===----------------------------------------------------------------------===//

#include "Baseline.h"
#include "CallGraph.h"
#include "Driver.h"
#include "Lint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace {

using namespace regmon::lint;

std::string readFixture(const std::string &Name) {
  std::string Path = std::string(REGMON_LINT_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture: " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<Diagnostic> lintFixture(const std::string &Name, Layer L) {
  FileContext FC = buildContext("fixture/" + Name, readFixture(Name), L);
  return runRules(FC);
}

int countRule(const std::vector<Diagnostic> &Diags, std::string_view Rule) {
  int N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Rule == Rule)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// R1: nondeterminism
//===----------------------------------------------------------------------===//

TEST(NondeterminismRule, FlagsClocksAndLibcRand) {
  auto Diags = lintFixture("nondet_bad.cpp", Layer::Deterministic);
  // srand, rand, time(), steady_clock::now, random_device.
  EXPECT_EQ(countRule(Diags, "nondeterminism"), 5);
}

TEST(NondeterminismRule, AcceptsRngAndLookalikes) {
  auto Diags = lintFixture("nondet_good.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "nondeterminism"), 0);
}

TEST(NondeterminismRule, BenchLayerMayUseClocks) {
  auto Diags = lintFixture("nondet_bad.cpp", Layer::Bench);
  EXPECT_EQ(countRule(Diags, "nondeterminism"), 0);
}

TEST(NondeterminismRule, RandomDeviceBannedOutsideSupportRng) {
  // Even the support layer may not draw entropy — only support/Rng may.
  auto Diags = lintFixture("nondet_bad.cpp", Layer::Support);
  EXPECT_EQ(countRule(Diags, "nondeterminism"), 1); // random_device only
  FileContext AsRng = buildContext(
      "src/support/Rng.cpp", readFixture("nondet_bad.cpp"), Layer::Support);
  EXPECT_EQ(countRule(runRules(AsRng), "nondeterminism"), 0);
}

//===----------------------------------------------------------------------===//
// R2a: concurrency
//===----------------------------------------------------------------------===//

TEST(ConcurrencyRule, FlagsPrimitivesOutsideService) {
  auto Diags = lintFixture("concurrency_bad.cpp", Layer::Deterministic);
  // <mutex>, <thread>, std::mutex, std::thread, std::lock_guard,
  // std::mutex again in the lock_guard's template argument.
  EXPECT_EQ(countRule(Diags, "concurrency"), 6);
}

TEST(ConcurrencyRule, AcceptsSequentialCode) {
  auto Diags = lintFixture("concurrency_good.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "concurrency"), 0);
}

TEST(ConcurrencyRule, ServiceAndTestsAreExempt) {
  EXPECT_EQ(countRule(lintFixture("concurrency_bad.cpp", Layer::Service),
                      "concurrency"),
            0);
  EXPECT_EQ(countRule(lintFixture("concurrency_bad.cpp", Layer::Tests),
                      "concurrency"),
            0);
}

//===----------------------------------------------------------------------===//
// R2b: memory-order
//===----------------------------------------------------------------------===//

TEST(MemoryOrderRule, FlagsDefaultedOrdering) {
  auto Diags = lintFixture("memory_order_bad.cpp", Layer::Service);
  EXPECT_EQ(countRule(Diags, "memory-order"), 3); // fetch_add, store, load
}

TEST(MemoryOrderRule, AcceptsExplicitOrdering) {
  auto Diags = lintFixture("memory_order_good.cpp", Layer::Service);
  EXPECT_EQ(countRule(Diags, "memory-order"), 0);
}

//===----------------------------------------------------------------------===//
// R3: iteration-order
//===----------------------------------------------------------------------===//

TEST(IterationOrderRule, FlagsUnorderedIterationFeedingOutput) {
  auto Diags = lintFixture("iteration_bad.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "iteration-order"), 2);
}

TEST(IterationOrderRule, AcceptsOrderedOrFoldingLoops) {
  auto Diags = lintFixture("iteration_good.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "iteration-order"), 0);
}

//===----------------------------------------------------------------------===//
// R4a: header-hygiene
//===----------------------------------------------------------------------===//

TEST(HeaderHygieneRule, FlagsMissingGuardAndNamespaceLeak) {
  auto Diags = lintFixture("hygiene_bad.h", Layer::Support);
  EXPECT_EQ(countRule(Diags, "header-hygiene"), 2);
}

TEST(HeaderHygieneRule, AcceptsGuardedHeaders) {
  EXPECT_EQ(
      countRule(lintFixture("hygiene_good.h", Layer::Support),
                "header-hygiene"),
      0);
  EXPECT_EQ(
      countRule(lintFixture("hygiene_pragma.h", Layer::Support),
                "header-hygiene"),
      0);
}

TEST(HeaderHygieneRule, IgnoresNonHeaders) {
  // Same content, .cpp extension: rule does not apply.
  FileContext FC = buildContext("fixture/hygiene_bad.cpp",
                                readFixture("hygiene_bad.h"), Layer::Support);
  EXPECT_EQ(countRule(runRules(FC), "header-hygiene"), 0);
}

//===----------------------------------------------------------------------===//
// R4b: assert-side-effects
//===----------------------------------------------------------------------===//

TEST(AssertSideEffectsRule, FlagsMutationInsideAssert) {
  auto Diags = lintFixture("assert_bad.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "assert-side-effects"), 2);
}

TEST(AssertSideEffectsRule, AcceptsPureAsserts) {
  auto Diags = lintFixture("assert_good.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "assert-side-effects"), 0);
}

//===----------------------------------------------------------------------===//
// R5: swallowed-exception
//===----------------------------------------------------------------------===//

TEST(SwallowedExceptionRule, FlagsSilentCatchAll) {
  auto Diags = lintFixture("exception_bad.cpp", Layer::Deterministic);
  // empty body, state-patching body, bare return.
  EXPECT_EQ(countRule(Diags, "swallowed-exception"), 3);
  // The rule covers every src/ layer, the service included.
  EXPECT_EQ(countRule(lintFixture("exception_bad.cpp", Layer::Service),
                      "swallowed-exception"),
            3);
}

TEST(SwallowedExceptionRule, AcceptsHandledCatchAll) {
  auto Diags = lintFixture("exception_good.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "swallowed-exception"), 0);
}

TEST(SwallowedExceptionRule, TestsToolsAndBenchExempt) {
  for (Layer L : {Layer::Tests, Layer::Tools, Layer::Bench})
    EXPECT_EQ(countRule(lintFixture("exception_bad.cpp", L),
                        "swallowed-exception"),
              0);
}

//===----------------------------------------------------------------------===//
// R6: persist-serialization
//===----------------------------------------------------------------------===//

std::vector<Diagnostic> lintAsPersist(const std::string &Name) {
  // Two-arg buildContext derives the layer from the path, exactly as the
  // driver would for a real src/persist file.
  FileContext FC = buildContext("src/persist/" + Name, readFixture(Name));
  return runRules(FC);
}

TEST(PersistSerializationRule, FlagsPlatformTypesAndUncheckedIo) {
  auto Diags = lintAsPersist("persist_bad.cpp");
  // size_t, long, unsigned fields; unchecked fwrite + fread.
  EXPECT_EQ(countRule(Diags, "persist-serialization"), 5);
}

// The unbuffered sink writes through POSIX calls; a dropped write or
// writev result hides a short write exactly as a dropped fwrite would.
TEST(PersistSerializationRule, FlagsDiscardedPosixWriteResults) {
  auto Diags = lintAsPersist("persist_writev_bad.cpp");
  EXPECT_EQ(countRule(Diags, "persist-serialization"), 2);
  int Writev = 0;
  for (const Diagnostic &D : Diags)
    if (D.Rule == "persist-serialization" &&
        D.Message.find("unchecked writev()") != std::string::npos)
      ++Writev;
  EXPECT_EQ(Writev, 1);
}

TEST(PersistSerializationRule, AcceptsFixedWidthCheckedIo) {
  auto Diags = lintAsPersist("persist_good.cpp");
  EXPECT_EQ(countRule(Diags, "persist-serialization"), 0);
}

TEST(PersistSerializationRule, GatedToPersistPathOnly) {
  FileContext FC = buildContext("src/core/persist_bad.cpp",
                                readFixture("persist_bad.cpp"));
  EXPECT_EQ(countRule(runRules(FC), "persist-serialization"), 0);
}

// The flight recorder (src/trace) writes a wire format too, so the rule
// covers it with the same teeth -- and the path classifies into the
// Deterministic layer, so concurrency tokens are flagged alongside.
TEST(PersistSerializationRule, CoversTraceLayer) {
  FileContext FC = buildContext("src/trace/trace_bad.cpp",
                                readFixture("trace_bad.cpp"));
  auto Diags = runRules(FC);
  // size_t, long, unsigned fields; unchecked fwrite + fread.
  EXPECT_EQ(countRule(Diags, "persist-serialization"), 5);
  // src/trace is Deterministic: the <mutex> include, the mutex and the
  // lock_guard all trip the concurrency rule.
  EXPECT_GE(countRule(Diags, "concurrency"), 3);
}

TEST(PersistSerializationRule, AcceptsConformingTraceCode) {
  FileContext FC = buildContext("src/trace/trace_good.cpp",
                                readFixture("trace_good.cpp"));
  auto Diags = runRules(FC);
  EXPECT_EQ(countRule(Diags, "persist-serialization"), 0);
  EXPECT_EQ(countRule(Diags, "concurrency"), 0);
}

//===----------------------------------------------------------------------===//
// R7: obs-determinism
//===----------------------------------------------------------------------===//

TEST(ObsDeterminismRule, FlagsClocksAndUnorderedContainers) {
  auto Diags = lintFixture("obs_bad.cpp", Layer::Obs);
  // <unordered_map> include, std::unordered_map use, time(), clock now.
  EXPECT_EQ(countRule(Diags, "obs-determinism"), 4);
}

TEST(ObsDeterminismRule, AcceptsAtomicsMapsAndLogicalClocks) {
  auto Diags = lintFixture("obs_good.cpp", Layer::Obs);
  EXPECT_EQ(countRule(Diags, "obs-determinism"), 0);
  // Atomics are legal in this layer (unlike Support) -- the whole point
  // of the lock-free registry -- and the fixture orders them explicitly.
  EXPECT_EQ(countRule(Diags, "concurrency"), 0);
  EXPECT_EQ(countRule(Diags, "memory-order"), 0);
}

TEST(ObsDeterminismRule, GatedToObsLayerOnly) {
  for (Layer L : {Layer::Deterministic, Layer::Support, Layer::Service,
                  Layer::Tools, Layer::Bench, Layer::Tests})
    EXPECT_EQ(countRule(lintFixture("obs_bad.cpp", L), "obs-determinism"), 0);
}

//===----------------------------------------------------------------------===//
// R10: hotpath
//===----------------------------------------------------------------------===//

TEST(HotpathRule, FlagsAllocationGrowthAndIndirectCalls) {
  auto Diags = lintFixture("hotpath_bad.cpp", Layer::Deterministic);
  // new, malloc, make_unique, push_back, resize, ->compare(), ->reserve().
  EXPECT_EQ(countRule(Diags, "hotpath"), 7);
}

TEST(HotpathRule, AcceptsFlatKernelsAndUntaggedAllocation) {
  auto Diags = lintFixture("hotpath_good.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "hotpath"), 0);
}

TEST(HotpathRule, SupportLayerIsAlsoScanned) {
  auto Diags = lintFixture("hotpath_bad.cpp", Layer::Support);
  EXPECT_EQ(countRule(Diags, "hotpath"), 7);
}

TEST(HotpathRule, GatedToHotLayersOnly) {
  for (Layer L : {Layer::Service, Layer::Obs, Layer::Tools, Layer::Bench,
                  Layer::Tests})
    EXPECT_EQ(countRule(lintFixture("hotpath_bad.cpp", L), "hotpath"), 0);
}

//===----------------------------------------------------------------------===//
// Inline suppressions
//===----------------------------------------------------------------------===//

TEST(Suppressions, AllowCommentSilencesNamedRuleOnly) {
  auto Diags = lintFixture("suppressed.cpp", Layer::Deterministic);
  // The include and DemoLock are allowed; UnsuppressedLock is not.
  EXPECT_EQ(countRule(Diags, "concurrency"), 1);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Snippet.find("UnsuppressedLock"), std::string::npos);
}

TEST(Suppressions, WildcardAllSilencesEveryRule) {
  FileContext FC = buildContext(
      "fixture/wildcard.cpp",
      "#include <mutex> // regmon-lint: allow(all)\n", Layer::Deterministic);
  EXPECT_TRUE(runRules(FC).empty());
}

//===----------------------------------------------------------------------===//
// Baseline round-trip
//===----------------------------------------------------------------------===//

TEST(Baseline, RoundTripSuppressesExactlyOnce) {
  auto Diags = lintFixture("concurrency_bad.cpp", Layer::Deterministic);
  ASSERT_FALSE(Diags.empty());
  std::string Text = Baseline::render(Diags);

  Baseline B = Baseline::parse(Text);
  EXPECT_TRUE(B.errors().empty());
  EXPECT_EQ(B.size(), Diags.size());
  EXPECT_EQ(B.apply(Diags), Diags.size());
  for (const Diagnostic &D : Diags)
    EXPECT_TRUE(D.Baselined);
  EXPECT_TRUE(B.unconsumed().empty());

  // A second identical violation is NOT covered by a single entry.
  auto Fresh = lintFixture("concurrency_bad.cpp", Layer::Deterministic);
  Baseline B2 = Baseline::parse(Text);
  B2.apply(Fresh);
  auto Again = lintFixture("concurrency_bad.cpp", Layer::Deterministic);
  EXPECT_EQ(B2.apply(Again), 0u);
}

TEST(Baseline, ReportsStaleAndMalformedEntries) {
  Baseline B = Baseline::parse("# comment\n"
                               "concurrency|src/x.cpp|std::mutex M;\n"
                               "not a valid entry\n");
  EXPECT_EQ(B.errors().size(), 1u);
  std::vector<Diagnostic> None;
  B.apply(None);
  EXPECT_EQ(B.unconsumed().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Path classification and normalization
//===----------------------------------------------------------------------===//

TEST(Classify, LayerMatrixMatchesTree) {
  EXPECT_EQ(classifyPath("src/core/RegionMonitor.cpp"),
            Layer::Deterministic);
  EXPECT_EQ(classifyPath("src/sim/Engine.cpp"), Layer::Deterministic);
  EXPECT_EQ(classifyPath("src/gpd/CentroidPhaseDetector.h"),
            Layer::Deterministic);
  EXPECT_EQ(classifyPath("src/sampling/Sampler.cpp"), Layer::Deterministic);
  EXPECT_EQ(classifyPath("src/faults/FaultPlan.cpp"), Layer::Deterministic);
  EXPECT_EQ(classifyPath("src/trace/Recorder.cpp"), Layer::Deterministic);
  EXPECT_EQ(classifyPath("src/service/MonitorService.cpp"), Layer::Service);
  EXPECT_EQ(classifyPath("src/obs/Metrics.cpp"), Layer::Obs);
  EXPECT_EQ(classifyPath("src/support/Rng.cpp"), Layer::Support);
  EXPECT_EQ(classifyPath("src/rto/Harness.cpp"), Layer::Support);
  EXPECT_EQ(classifyPath("tools/regmon_cli.cpp"), Layer::Tools);
  EXPECT_EQ(classifyPath("bench/BenchSupport.cpp"), Layer::Bench);
  EXPECT_EQ(classifyPath("tests/CoreLpdTest.cpp"), Layer::Tests);
  EXPECT_EQ(classifyPath("examples/quickstart.cpp"), Layer::Other);
}

TEST(Normalize, CollapsesWhitespace) {
  EXPECT_EQ(normalizeLine("  std::mutex\t M;  "), "std::mutex M;");
  EXPECT_EQ(normalizeLine(""), "");
}

//===----------------------------------------------------------------------===//
// Lexer robustness: banned names inside comments/strings never match.
//===----------------------------------------------------------------------===//

TEST(Lexer, LiteralsAndCommentsAreOpaque) {
  FileContext FC = buildContext("src/core/x.cpp",
                                "// calls std::rand() and time(nullptr)\n"
                                "const char *Doc = \"std::rand()\";\n"
                                "/* steady_clock::now() */\n",
                                Layer::Deterministic);
  EXPECT_TRUE(runRules(FC).empty());
}

TEST(Lexer, PrefixedMultilineRawStringIsOpaque) {
  // u8R/uR/UR/LR prefixes must route to the raw-string scanner like plain
  // R; a violation *after* the literal is still caught, on its real line.
  FileContext FC = buildContext("src/core/x.cpp",
                                "const char *Doc = u8R\"(\n"
                                "  std::rand() and time(nullptr)\n"
                                ")\";\n"
                                "int Seed = std::rand();\n",
                                Layer::Deterministic);
  auto Diags = runRules(FC);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Rule, "nondeterminism");
  EXPECT_EQ(Diags[0].Line, 4);
}

TEST(Lexer, SplicedIdentifiersLexAsOneToken) {
  // A backslash-newline splice inside an identifier must not split it in
  // two -- `std::ra\<nl>nd()` is a std::rand() call.
  FileContext FC = buildContext("src/core/x.cpp",
                                "int X = std::ra\\\nnd();\n",
                                Layer::Deterministic);
  EXPECT_EQ(countRule(runRules(FC), "nondeterminism"), 1);
}

TEST(Lexer, SplicedLineCommentSwallowsContinuation) {
  // A line comment ending in `\` continues onto the next physical line;
  // that line is comment text, not code.
  FileContext FC = buildContext("src/core/x.cpp",
                                "// hidden \\\nstd::rand();\nint X = 0;\n",
                                Layer::Deterministic);
  EXPECT_TRUE(runRules(FC).empty());
}

//===----------------------------------------------------------------------===//
// R11-R13: call-graph purity rules
//===----------------------------------------------------------------------===//

std::vector<Diagnostic> lintGraphFixture(const std::string &Name, Layer L) {
  std::vector<FileContext> Files;
  Files.push_back(buildContext("fixture/" + Name, readFixture(Name), L));
  CallGraph G = CallGraph::build(Files);
  return runGraphRules(G, Files);
}

TEST(PurityGraph, TokenRuleMissesWhatTheGraphProves) {
  // Every seeded violation sits at least one call below the annotated
  // body, so the per-file hotpath scan stays clean -- only the graph pass
  // convicts (laundering + the three-hop allocation).
  auto TokenDiags = lintFixture("purity_bad.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(TokenDiags, "hotpath"), 0);
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "purity-hot"), 2);
}

TEST(PurityGraph, IndirectCallLaunderingCaught) {
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  bool Found = false;
  for (const Diagnostic &D : Diags)
    if (D.Rule == "purity-hot" &&
        D.Message.find("hotLaundered -> launder") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(PurityGraph, ThreeHopAllocationChainReported) {
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  bool Found = false;
  for (const Diagnostic &D : Diags)
    if (D.Rule == "purity-hot" &&
        D.Message.find("hotDeepAlloc -> hopOne -> hopTwo -> hopThree") !=
            std::string::npos &&
        D.Message.find("operator new") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(PurityGraph, PureRootClockViolationCarriesChain) {
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "purity"), 3);
  bool Found = false;
  for (const Diagnostic &D : Diags)
    if (D.Rule == "purity" &&
        D.Message.find("detectorDecide -> helperClock") !=
            std::string::npos &&
        D.Message.find("steady_clock") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(PurityGraph, PureMergeSmugglingClockThroughHelperCaught) {
  // A summary merge annotated REGMON_PURE whose tie-break helper reads a
  // wall clock: the merge body itself is token-clean, so only the graph
  // pass can prove replay instability.
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  bool Found = false;
  for (const Diagnostic &D : Diags)
    if (D.Rule == "purity" &&
        D.Message.find("mergeSummaries -> mergeTieBreak") !=
            std::string::npos &&
        D.Message.find("steady_clock") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(PurityGraph, ControllerDecisionSmugglingClockThroughHelperCaught) {
  // The adaptive-sampling shape: a REGMON_PURE controller decision whose
  // streak-expiry helper reads a wall clock. The decision body is
  // token-clean, so only the graph pass can prove the period schedule
  // would not replay -- the contract AdaptiveController::observe relies
  // on (DESIGN.md §16).
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  bool Found = false;
  for (const Diagnostic &D : Diags)
    if (D.Rule == "purity" &&
        D.Message.find("controllerDecide -> streakExpired") !=
            std::string::npos &&
        D.Message.find("steady_clock") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

// POSIX file calls resolve to no repo function; the effect lattice must
// name them as I/O, or the prover would read them as effect-free.
TEST(PurityGraph, PureRootReachingWritevThroughAHelperCaught) {
  auto Diags = lintGraphFixture("purity_writev.cpp", Layer::Deterministic);
  EXPECT_EQ(countRule(Diags, "purity"), 1);
  bool Found = false;
  for (const Diagnostic &D : Diags)
    if (D.Rule == "purity" &&
        D.Message.find("decideAndLog -> persistDecision") !=
            std::string::npos &&
        D.Message.find("writev()") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(PurityGraph, ConfinementFlagsSmuggledConcurrencyOnly) {
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  // guardedBump's own mutex (chain length 1) is the token `concurrency`
  // rule's territory; only the laundered reach through intervalEnd fires.
  EXPECT_EQ(countRule(Diags, "purity-confinement"), 1);
  for (const Diagnostic &D : Diags)
    if (D.Rule == "purity-confinement") {
      EXPECT_NE(D.Message.find("intervalEnd -> guardedBump"),
                std::string::npos);
    }
}

TEST(PurityGraph, DiagnosticsAnchorAtTheAnnotatedRoot) {
  auto Diags = lintGraphFixture("purity_bad.cpp", Layer::Deterministic);
  for (const Diagnostic &D : Diags) {
    if (D.Rule == "purity-confinement")
      continue; // anchored at the (unannotated) deterministic caller
    EXPECT_FALSE(D.Snippet.empty());
    EXPECT_NE(D.Snippet.find("REGMON_"), std::string::npos)
        << D.Rule << ": " << D.Snippet;
  }
}

TEST(PurityGraph, GnuAttributedFunctionIsAGraphNode) {
  // `__attribute__((target(...)))` before a declaration names nothing, as
  // `[[...]]` names nothing: the helper is a node under its own name, and
  // the hot root's call reaches the allocation in its body. Before a class
  // name, the class keeps its name.
  std::vector<FileContext> Files;
  Files.push_back(buildContext("fixture/purity_gnu_attribute.cpp",
                               readFixture("purity_gnu_attribute.cpp"),
                               Layer::Deterministic));
  CallGraph G = CallGraph::build(Files);
  bool HelperIsNode = false, MethodInClass = false;
  for (const GraphNode &N : G.nodes()) {
    EXPECT_NE(N.Name, "__attribute__");
    EXPECT_NE(N.ClassName, "__attribute__");
    HelperIsNode = HelperIsNode || N.Name == "clmulHelper";
    MethodInClass =
        MethodInClass || (N.Name == "sum" && N.ClassName == "Lanes");
  }
  EXPECT_TRUE(HelperIsNode);
  EXPECT_TRUE(MethodInClass);
  bool Found = false;
  for (const Diagnostic &D : runGraphRules(G, Files))
    if (D.Rule == "purity-hot" &&
        D.Message.find("hotClmulRoot -> clmulHelper") != std::string::npos &&
        D.Message.find("operator new") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(PurityGraph, GoodFixtureAndAllowExemptionStayClean) {
  // hotExempted reaches an allocation, but the evidence line carries
  // `allow(purity-hot)`; pureAlloc allocates, which REGMON_PURE permits.
  auto Diags = lintGraphFixture("purity_good.cpp", Layer::Deterministic);
  EXPECT_TRUE(Diags.empty());
}

TEST(Driver, RunsOverFixtureTreeAndSortsDiagnostics) {
  DriverOptions Options;
  Options.Root = REGMON_LINT_FIXTURE_DIR;
  Options.Paths = {"."};
  Options.UseBaseline = false;
  RunResult R = runLint(Options);
  EXPECT_GT(R.FilesScanned, 10u);
  EXPECT_TRUE(R.Errors.empty());
  // Fixtures classify as Layer::Other (outside src/), so only the
  // layer-independent rules fire here; sorted by path then line.
  for (std::size_t I = 1; I < R.Diags.size(); ++I) {
    const Diagnostic &A = R.Diags[I - 1], &B = R.Diags[I];
    EXPECT_TRUE(A.Path < B.Path || (A.Path == B.Path && A.Line <= B.Line));
  }
}

TEST(Driver, BuildsCallGraphOverScannedFiles) {
  DriverOptions Options;
  Options.Root = REGMON_LINT_FIXTURE_DIR;
  Options.Paths = {"purity_bad.cpp"};
  Options.UseBaseline = false;
  RunResult R = runLint(Options);
  ASSERT_TRUE(R.Graph != nullptr);
  EXPECT_GT(R.Graph->nodes().size(), 5u);
  std::ostringstream Dot, Json;
  R.Graph->dumpDot(Dot);
  R.Graph->dumpJson(Json);
  EXPECT_NE(Dot.str().find("digraph"), std::string::npos);
  EXPECT_NE(Json.str().find("\"nodes\""), std::string::npos);
}

TEST(Driver, CheckBaselineTurnsStaleEntriesIntoErrors) {
  std::string Path = testing::TempDir() + "regmon_stale_baseline.txt";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "concurrency|no/such/file.cpp|std::mutex Gone;\n";
  }
  DriverOptions Options;
  Options.Root = REGMON_LINT_FIXTURE_DIR;
  Options.Paths = {"concurrency_good.cpp"};
  Options.BaselinePath = Path;
  RunResult R = runLint(Options);
  ASSERT_EQ(R.Stale.size(), 1u);
  EXPECT_TRUE(R.Errors.empty()); // default: stale is only a warning
  Options.CheckBaseline = true;
  RunResult Strict = runLint(Options);
  ASSERT_EQ(Strict.Stale.size(), 1u);
  EXPECT_FALSE(Strict.Errors.empty());
  EXPECT_EQ(exitCode(Strict), 2);
}

} // namespace
