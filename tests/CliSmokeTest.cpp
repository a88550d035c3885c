//===- tests/CliSmokeTest.cpp - regmon-cli exit-code contract -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the CLI's process contract: 0 success, 1 runtime failure, 2 usage
// error; --help on stdout, diagnostics on stderr. Scripts and the CI
// replay-determinism job branch on these codes, so a change here is an
// interface break, not a cosmetic one. The service commands' reports are
// pinned whole against cli_golden/. Every case shells out to the real
// binary (REGMON_CLI_PATH, injected by CMake) -- no main() re-entry.
//
//===----------------------------------------------------------------------===//

#include "trace/Format.h"

#include "persist/Bytes.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int Exit = -1;
  std::string Out;
  std::string Err;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Runs `regmon-cli <Args>` with stdout/stderr captured to scratch files.
RunResult run(const std::string &Args) {
  static int Counter = 0;
  const std::string Base = ::testing::TempDir() + "regmon_cli_smoke_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(Counter++);
  const std::string OutPath = Base + ".out";
  const std::string ErrPath = Base + ".err";
  const std::string Cmd = std::string("\"") + REGMON_CLI_PATH + "\" " + Args +
                          " >\"" + OutPath + "\" 2>\"" + ErrPath + "\"";
  const int Status = std::system(Cmd.c_str());
  RunResult R;
  if (WIFEXITED(Status))
    R.Exit = WEXITSTATUS(Status);
  R.Out = slurp(OutPath);
  R.Err = slurp(ErrPath);
  std::remove(OutPath.c_str());
  std::remove(ErrPath.c_str());
  return R;
}

TEST(CliSmoke, HelpGoesToStdoutAndExitsZero) {
  for (const char *Spelling : {"--help", "-h", "help"}) {
    const RunResult R = run(Spelling);
    EXPECT_EQ(R.Exit, 0) << Spelling;
    EXPECT_NE(R.Out.find("usage:"), std::string::npos) << Spelling;
    EXPECT_NE(R.Out.find("trace-verify"), std::string::npos)
        << "the usage text must cover the flight-recorder commands";
    EXPECT_TRUE(R.Err.empty()) << Spelling << ": " << R.Err;
  }
}

TEST(CliSmoke, NoArgumentsIsAUsageError) {
  const RunResult R = run("");
  EXPECT_EQ(R.Exit, 2);
  EXPECT_TRUE(R.Out.empty()) << R.Out;
  EXPECT_NE(R.Err.find("usage:"), std::string::npos);
}

TEST(CliSmoke, UnknownCommandIsAUsageError) {
  const RunResult R = run("frobnicate");
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(CliSmoke, UnknownFlagIsAUsageError) {
  const RunResult R = run("monitor synthetic.steady --no-such-flag");
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find("unknown flag '--no-such-flag'"), std::string::npos);
}

TEST(CliSmoke, UnknownWorkloadIsAUsageError) {
  const RunResult R = run("monitor no.such.workload");
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find("unknown workload"), std::string::npos);
}

/// Runs \p Args and expects a usage error (a normal exit 2, not a
/// signal) whose diagnostic names \p Flag.
void expectBadFlag(const std::string &Args, const std::string &Flag) {
  SCOPED_TRACE(Args);
  const RunResult R = run(Args);
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find(Flag), std::string::npos) << R.Err;
}

TEST(CliSmoke, MalformedNumericFlagsAreUsageErrors) {
  // A numeric flag takes its whole value or nothing: no trailing text, no
  // sign, no silent narrowing to a smaller field, no rate outside [0, 1].
  expectBadFlag("monitor synthetic.steady --seed 12abc", "--seed");
  expectBadFlag("monitor synthetic.steady --period 45000x", "--period");
  expectBadFlag("serve synthetic.steady --streams -1", "--streams");
  expectBadFlag("fleet synthetic.steady --leaves 4294967297 --epochs 1",
                "--leaves");
  expectBadFlag("fleet synthetic.steady --leaves 1 --epochs 1 --drop-rate 2",
                "--drop-rate");
}

TEST(CliSmoke, ZeroOrNonNumericPeriodIsAUsageError) {
  // Either would leave the sampler a 1-cycle period: a run that never
  // ends in practice.
  expectBadFlag("monitor 181.mcf --period 0", "--period");
  expectBadFlag("monitor 181.mcf --period abc", "--period");
}

TEST(CliSmoke, ListSucceedsAndNamesWorkloads) {
  const RunResult R = run("list");
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("synthetic.steady"), std::string::npos);
  EXPECT_TRUE(R.Err.empty()) << R.Err;
}

TEST(CliSmoke, TraceVerifyWithoutTraceIsAUsageError) {
  const RunResult R = run("trace-verify");
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find("trace-verify needs --trace"), std::string::npos);
}

TEST(CliSmoke, TraceVerifyMissingFileIsARuntimeFailure) {
  const RunResult R = run("trace-verify --trace /no/such/trace.bin");
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Err.find("no trace at"), std::string::npos);
}

/// A scratch path for a CLI run's files, removed first.
std::string scratchPath(const std::string &Tag) {
  const std::string Path = ::testing::TempDir() + "regmon_cli_smoke_" +
                           std::to_string(::getpid()) + "_" + Tag;
  std::filesystem::remove_all(Path);
  return Path;
}

TEST(CliSmoke, DurabilityRefusesTheDropPolicy) {
  // The journal records no evictions, so recovery would process what a
  // drop-oldest queue discarded: every command that attaches --dir
  // refuses --policy drop before it touches the directory.
  const std::string Dir = scratchPath("drop_dir");
  const std::string Trace = scratchPath("drop.trace.bin");
  for (const std::string Cmd : {"checkpoint", "restore", "record", "replay"}) {
    SCOPED_TRACE(Cmd);
    const std::string TraceFlag =
        Cmd == "record" || Cmd == "replay" ? " --trace \"" + Trace + "\"" : "";
    const RunResult R = run(Cmd + " synthetic.periodic --dir \"" + Dir +
                            "\"" + TraceFlag + " --policy drop");
    EXPECT_EQ(R.Exit, 2);
    EXPECT_NE(R.Err.find("--dir"), std::string::npos) << R.Err;
    EXPECT_NE(R.Err.find("--policy drop"), std::string::npos) << R.Err;
    EXPECT_FALSE(std::filesystem::exists(Dir));
    EXPECT_FALSE(std::filesystem::exists(Trace));
  }
}

TEST(CliSmoke, RecordRefusesAForeignTraceFile) {
  // Another writer's file is never repaired (that would destroy it): the
  // recorder refuses it and the run fails before any work.
  const std::string Trace = scratchPath("foreign.trace.bin");
  const std::string Text = "not a regmon trace, just text\n";
  std::ofstream(Trace, std::ios::binary) << Text;
  const RunResult R = run("record synthetic.periodic --trace \"" + Trace +
                          "\" --streams 2 --workers 1 --intervals 2");
  EXPECT_EQ(R.Exit, 1);
  EXPECT_TRUE(R.Out.empty()) << R.Out;
  EXPECT_EQ(R.Err, "error: cannot record to '" + Trace +
                       "' (not a regmon trace, or the crash budget died "
                       "before the header)\n");
  EXPECT_EQ(slurp(Trace), Text);
  std::filesystem::remove(Trace);
}

TEST(CliSmoke, RecordReportsTheSequenceRestoreReached) {
  // The restore line must print the sequence after the restore, not the
  // one before it.
  const std::string Dir = scratchPath("seq_ckpt");
  const std::string Trace = scratchPath("seq.trace.bin");
  const std::string Flags = " synthetic.periodic --dir \"" + Dir +
                            "\" --streams 4 --workers 2 --intervals 6 "
                            "--seed 7";
  const RunResult Ckpt = run("checkpoint" + Flags);
  ASSERT_EQ(Ckpt.Exit, 0) << Ckpt.Err;
  ASSERT_NE(Ckpt.Out.find("journaled sequence 0 -> 24"), std::string::npos)
      << Ckpt.Out;
  const RunResult R = run("record" + Flags + " --trace \"" + Trace + "\"");
  EXPECT_EQ(R.Exit, 0) << R.Err;
  EXPECT_EQ(R.Out.rfind("restored from " + Dir +
                            ": snapshot-only (sequence 24)\n",
                        0),
            0U)
      << R.Out;
  std::filesystem::remove_all(Dir);
  std::filesystem::remove(Trace);
}

/// Replaces every \p From in \p Text with \p To.
std::string substitute(std::string Text, const std::string &From,
                       const std::string &To) {
  for (std::size_t At = Text.find(From); At != std::string::npos;
       At = Text.find(From, At + To.size()))
    Text.replace(At, From.size(), To);
  return Text;
}

// The service commands' whole stdout, pinned on one seeded two-stream
// run: serve, checkpoint fresh and then resumed on one directory,
// restore, record on that directory with an export, and replay onto a
// copy of the directory taken before the recording. The goldens in
// cli_golden/ write the scratch directory as @S@.
TEST(CliSmoke, ServiceCommandsPrintTheirPinnedOutput) {
  const std::string S = scratchPath("pinned");
  ASSERT_TRUE(std::filesystem::create_directories(S));
  const std::string Golden = REGMON_CLI_GOLDEN_DIR;
  const std::string Run = " synthetic.periodic --streams 2 --workers 1 "
                          "--seed 7";
  const auto Expect = [&](const std::string &Args, const std::string &File) {
    SCOPED_TRACE(Args);
    const RunResult R = run(Args);
    EXPECT_EQ(R.Exit, 0) << R.Err;
    EXPECT_EQ(substitute(R.Out, S, "@S@"), slurp(Golden + "/" + File));
    return R;
  };
  const std::string Ckpt = " --dir \"" + S + "/ckpt\"";
  Expect("serve" + Run + " --intervals 4", "serve.out");
  Expect("checkpoint" + Run + " --intervals 4" + Ckpt, "checkpoint_fresh.out");
  Expect("checkpoint" + Run + " --intervals 4" + Ckpt,
         "checkpoint_resumed.out");
  Expect("restore" + Run + Ckpt, "restore.out");
  std::filesystem::copy(S + "/ckpt", S + "/replayed",
                        std::filesystem::copy_options::recursive);
  const std::string Trace = " --trace \"" + S + "/t.bin\"";
  Expect("record" + Run + " --intervals 4 --poison-rate 0.2" + Ckpt + Trace +
             " --export \"" + S + "/export.prom\"",
         "record.out");
  EXPECT_EQ(slurp(S + "/export.prom"), slurp(Golden + "/export.prom"));
  const RunResult Replay =
      Expect("replay" + Run + Trace + " --dir \"" + S + "/replayed\"",
             "export.prom");
  EXPECT_EQ(Replay.Err, "replayed 8 batch(es), 0 drop(s), 0 push "
                        "reject(s), 1 checkpoint(s) (1 re-applied)\n");
  EXPECT_EQ(slurp(S + "/replayed/snapshot.bin"),
            slurp(S + "/ckpt/snapshot.bin"));

  // The trace starts where the recording's restore left the directory
  // (sequence 16), so a replay onto a cold service refuses to begin.
  const RunResult Cold = run("replay" + Run + Trace);
  EXPECT_EQ(Cold.Exit, 1);
  EXPECT_EQ(Cold.Out, "");
  EXPECT_NE(Cold.Err.find("trace starts at journal sequence 16, but this "
                          "service holds sequence 0"),
            std::string::npos)
      << Cold.Err;
  std::filesystem::remove_all(S);
}

// record --dir resumes like checkpoint: each stream skips the intervals
// its restored state holds (processed, poisoned or quarantined) while the
// fault plan still draws for them, so two 6-interval runs commit the
// snapshot of one 12-interval run.
TEST(CliSmoke, ResumedRecordRunsEqualOneUninterruptedRun) {
  const std::string S = scratchPath("record_resume");
  ASSERT_TRUE(std::filesystem::create_directories(S));
  const std::string Run = " synthetic.periodic --streams 4 --workers 2 "
                          "--seed 7 --poison-rate 0.2";
  for (const char *Trace : {"/r1.bin", "/r2.bin"}) {
    const RunResult R = run("record" + Run + " --intervals 6 --dir \"" + S +
                            "/resumed\" --trace \"" + S + Trace + "\"");
    ASSERT_EQ(R.Exit, 0) << R.Err;
  }
  const RunResult Whole =
      run("record" + Run + " --intervals 12 --dir \"" + S +
          "/whole\" --trace \"" + S + "/w.bin\"");
  ASSERT_EQ(Whole.Exit, 0) << Whole.Err;
  EXPECT_EQ(Whole.Out.find(" 0 poisoned"), std::string::npos)
      << "the plan must poison some batches: " << Whole.Out;
  const std::string Resumed = slurp(S + "/resumed/snapshot.bin");
  ASSERT_FALSE(Resumed.empty());
  EXPECT_EQ(Resumed, slurp(S + "/whole/snapshot.bin"));
  std::filesystem::remove_all(S);
}

TEST(CliSmoke, FreshDirectoryReportsNoSnapshotError) {
  const std::string Dir = scratchPath("fresh_ckpt");
  const RunResult R = run("checkpoint synthetic.periodic --dir \"" + Dir +
                          "\" --streams 1 --workers 1 --intervals 2");
  EXPECT_EQ(R.Exit, 0) << R.Err;
  EXPECT_NE(R.Out.find("cold-start"), std::string::npos) << R.Out;
  EXPECT_EQ(R.Out.find("last snapshot error"), std::string::npos) << R.Out;
  std::filesystem::remove_all(Dir);
}

TEST(CliSmoke, DamagedSnapshotWithoutFallbackNamesItsError) {
  const std::string Dir = scratchPath("damaged_ckpt");
  const std::string Flags =
      " synthetic.periodic --dir \"" + Dir + "\" --streams 1 --workers 1";
  ASSERT_EQ(run("checkpoint" + Flags + " --intervals 2").Exit, 0);
  ASSERT_FALSE(std::filesystem::exists(Dir + "/snapshot.prev.bin"));
  // Flip the last byte, which belongs to the whole-file CRC.
  const std::string Snapshot = Dir + "/snapshot.bin";
  std::string Bytes = slurp(Snapshot);
  ASSERT_FALSE(Bytes.empty());
  Bytes.back() = static_cast<char>(Bytes.back() ^ 0x01);
  std::ofstream(Snapshot, std::ios::binary | std::ios::trunc) << Bytes;

  const RunResult R = run("restore" + Flags);
  EXPECT_EQ(R.Exit, 0) << R.Err;
  EXPECT_NE(R.Out.find("journal-only"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("1 corrupt snapshot(s)"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("last snapshot error: file-crc-mismatch"),
            std::string::npos)
      << R.Out;
  std::filesystem::remove_all(Dir);
}

/// The operator walkthrough in miniature: a torn trace verifies as
/// damaged (exit 1), --repair truncates it, and the repaired file
/// verifies intact (exit 0).
TEST(CliSmoke, TraceVerifyRepairRoundTrip) {
  const std::string Trace = ::testing::TempDir() + "regmon_cli_smoke_" +
                            std::to_string(::getpid()) + ".trace.bin";
  std::remove(Trace.c_str());
  {
    regmon::persist::ByteWriter W;
    W.bytes(regmon::persist::logHeader(regmon::trace::TraceFormat));
    W.u8(0xAB); // one garbage byte: a torn record header
    std::ofstream Out(Trace, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(W.data().data()),
              static_cast<std::streamsize>(W.size()));
  }

  const std::string Flag = " --trace \"" + Trace + "\"";
  const RunResult Damaged = run("trace-verify" + Flag);
  EXPECT_EQ(Damaged.Exit, 1);
  EXPECT_NE(Damaged.Out.find("torn-tail"), std::string::npos);
  EXPECT_NE(Damaged.Err.find("--repair"), std::string::npos)
      << "a repairable file must advertise the fix";

  const RunResult Repaired = run("trace-verify" + Flag + " --repair");
  EXPECT_EQ(Repaired.Exit, 0);
  EXPECT_NE(Repaired.Out.find("repaired"), std::string::npos);

  const RunResult Clean = run("trace-verify" + Flag);
  EXPECT_EQ(Clean.Exit, 0);
  EXPECT_NE(Clean.Out.find("intact"), std::string::npos);
  std::remove(Trace.c_str());
}

} // namespace
