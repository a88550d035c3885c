//===- persist/Journal.cpp - Write-ahead batch journal --------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Journal.h"

using namespace regmon::persist;

JournalResult regmon::persist::replayJournal(const std::string &Path,
                                            std::uint64_t SkipThroughSeq,
                                            const JournalReplay &Replay) {
  JournalResult Res;
  const auto Data = readFileBytes(Path);
  if (!Data) {
    Res.Missing = true;
    return Res;
  }
  const LogScan Scan =
      scanLog(*Data, JournalFormat, [&](const LogRecord &R) {
        if (R.Kind != JournalBatchKind)
          return false;
        if (R.Seq <= SkipThroughSeq) {
          ++Res.RecordsSkipped;
          return true;
        }
        // Applied records run on from the skip threshold without a hole,
        // so the state's sequence is the threshold plus their count.
        if (R.Seq != SkipThroughSeq + Res.RecordsReplayed + 1) {
          Res.Gap = true;
          Res.GapSeq = R.Seq;
          return false;
        }
        const ReplayVerdict Verdict =
            Replay ? Replay(R.Seq, R.Payload) : ReplayVerdict::Applied;
        Res.Mismatch = Verdict == ReplayVerdict::Foreign;
        if (Verdict != ReplayVerdict::Applied)
          return false;
        ++Res.RecordsReplayed;
        return true;
      });
  Res.LastSeq = Scan.LastSeq;
  Res.ValidBytes = Scan.ValidBytes;
  // The writer puts the header out before any record, so a file without
  // one -- even an empty file -- is a writer that died inside it.
  Res.HeaderCorrupt = Scan.HeaderTorn || Scan.HeaderCorrupt ||
                      Scan.VersionSkew || Data->empty();
  Res.PayloadRejected = Scan.Rejected && !Res.Mismatch && !Res.Gap;
  Res.TornTail = Scan.TornTail || Res.PayloadRejected;
  return Res;
}
