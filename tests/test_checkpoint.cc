/**
 * @file
 * Tests for the crash-tolerance layer: the CampaignCheckpoint store
 * (atomic save, digest-verified load, rejection of truncated and
 * corrupt files with a last-good-state diagnostic), the batched
 * checkpointed shard runner (complete / resume-midway / graceful
 * stop), the AIECC_CRASH_AFTER_SHARD self-kill hook and the
 * AIECC_SIGNAL_AFTER_SHARD self-signal hook.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.hh"

namespace aiecc
{
namespace
{

std::string
dataPath(const std::string &name)
{
    return std::string(AIECC_TEST_DATA_DIR) + "/" + name;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

// ---- self-crash hook (death suites run before everything else, so
// the lazily-parsed threshold is still unset in the forked child) ----

TEST(CheckpointCrashDeathTest, KillsAfterThresholdBeforeCommit)
{
    ::setenv("AIECC_CRASH_AFTER_SHARD", "3", 1);
    EXPECT_EXIT(
        {
            uint64_t next = 0;
            uint64_t committed = 0;
            runShardsCheckpointed(
                10, 2, 1, next, [](uint64_t) {},
                [&](uint64_t, uint64_t end) { committed = end; });
            // Unreachable: the hook fires inside the runner.  If it
            // did not, exit 0 and fail the ExitedWithCode(137) match.
            std::_Exit(committed == 10 ? 0 : 1);
        },
        ::testing::ExitedWithCode(137), "simulating hard kill");
    ::unsetenv("AIECC_CRASH_AFTER_SHARD");
}

TEST(CheckpointCrashDeathTest, SignalAfterThresholdInterruptsAfterCommit)
{
    ::setenv("AIECC_SIGNAL_AFTER_SHARD", "3", 1);
    EXPECT_EXIT(
        {
            installStopHandlers();
            uint64_t next = 0;
            uint64_t committed = 0;
            const RunStatus status = runShardsCheckpointed(
                10, 2, 1, next, [](uint64_t) {},
                [&](uint64_t, uint64_t end) { committed = end; });
            // The real SIGTERM lands after the batch that crossed 3
            // shards (0-1, 2-3) commits; the handler turns it into a
            // stop before the next batch.
            std::fprintf(stderr, "status %d committed %llu next %llu\n",
                         static_cast<int>(status),
                         static_cast<unsigned long long>(committed),
                         static_cast<unsigned long long>(next));
            std::_Exit(status == RunStatus::Interrupted &&
                               committed == 4 && next == 4
                           ? 75
                           : 1);
        },
        ::testing::ExitedWithCode(75), "raising SIGTERM after 4");
    ::unsetenv("AIECC_SIGNAL_AFTER_SHARD");
}

TEST(CheckpointCrashDeathTest, ThresholdParsesFromEnvironment)
{
    ::setenv("AIECC_CRASH_AFTER_SHARD", "1234", 1);
    EXPECT_EQ(crashAfterShardThreshold(), 1234u);
    ::unsetenv("AIECC_CRASH_AFTER_SHARD");
    EXPECT_EQ(crashAfterShardThreshold(), 0u);
}

// ---- CampaignCheckpoint store ----

TEST(CampaignCheckpoint, SectionRoundTrip)
{
    CampaignCheckpoint ckpt;
    ckpt.setCampaignId("bench trials=100 quick");
    ckpt.setProgressNote("unit 3/15 (recovery:WR) shard 12");
    ckpt.set("stats", "counts 1 2 3\n");
    ckpt.set("payload.with-newlines", "line1\nline2\n\nline4");
    ckpt.set("empty", "");

    CampaignCheckpoint fresh;
    const auto res = fresh.deserialize(ckpt.serialize());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(fresh.campaignId(), "bench trials=100 quick");
    EXPECT_EQ(fresh.progressNote(), "unit 3/15 (recovery:WR) shard 12");
    ASSERT_EQ(fresh.sectionCount(), 3u);
    EXPECT_EQ(fresh.get("stats"), "counts 1 2 3\n");
    EXPECT_EQ(fresh.get("payload.with-newlines"),
              "line1\nline2\n\nline4");
    EXPECT_EQ(fresh.get("empty"), "");
    // Canonical bytes: re-serializing the restored store is identical.
    EXPECT_EQ(fresh.serialize(), ckpt.serialize());
}

TEST(CampaignCheckpoint, SetReplacesAndEraseRemoves)
{
    CampaignCheckpoint ckpt;
    ckpt.set("a", "one");
    ckpt.set("a", "two");
    EXPECT_EQ(ckpt.get("a"), "two");
    ckpt.erase("a");
    EXPECT_FALSE(ckpt.has("a"));
    EXPECT_EQ(ckpt.sectionCount(), 0u);
}

TEST(CampaignCheckpoint, SaveAtomicLoadFileRoundTrip)
{
    CampaignCheckpoint ckpt;
    ckpt.setCampaignId("atomic-test");
    ckpt.setProgressNote("unit 1/2 shard 5");
    ckpt.set("cell", "trials 7 counts 7 0 0 0 0 0 0 0\n");
    const std::string path = tmpPath("aiecc_ckpt_roundtrip.ckpt");
    const auto saved = ckpt.saveAtomic(path);
    ASSERT_TRUE(saved.ok) << saved.error;

    CampaignCheckpoint loaded;
    const auto res = loaded.loadFile(path);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(loaded.serialize(), ckpt.serialize());
    std::remove(path.c_str());
}

TEST(CampaignCheckpoint, SaveAtomicReplacesExistingFile)
{
    const std::string path = tmpPath("aiecc_ckpt_replace.ckpt");
    CampaignCheckpoint first;
    first.setCampaignId("campaign");
    first.set("cursor", "unit 0 shard 1");
    ASSERT_TRUE(first.saveAtomic(path).ok);

    CampaignCheckpoint second;
    second.setCampaignId("campaign");
    second.set("cursor", "unit 5 shard 40");
    ASSERT_TRUE(second.saveAtomic(path).ok);

    CampaignCheckpoint loaded;
    ASSERT_TRUE(loaded.loadFile(path).ok);
    EXPECT_EQ(loaded.get("cursor"), "unit 5 shard 40");
    std::remove(path.c_str());
}

// ---- damage rejection ----

TEST(CampaignCheckpoint, RejectsTruncatedFixture)
{
    // A torn write: the tail of the file (mid-payload onward) is
    // gone.  The loader must refuse and name the last good state.
    CampaignCheckpoint ckpt;
    const auto res =
        ckpt.loadFile(dataPath("checkpoint_truncated.ckpt"));
    ASSERT_FALSE(res.ok);
    EXPECT_NE(res.error.find("truncated checkpoint"), std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("last good state"), std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("fixture_bench trials=500 quick"),
              std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("shard 120"), std::string::npos)
        << res.error;
}

TEST(CampaignCheckpoint, RejectsCorruptFixture)
{
    // Framing intact, one payload byte flipped: only the digest can
    // catch it — and must.
    CampaignCheckpoint ckpt;
    const auto res =
        ckpt.loadFile(dataPath("checkpoint_corrupt.ckpt"));
    ASSERT_FALSE(res.ok);
    EXPECT_NE(res.error.find("digest mismatch"), std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("fixture_bench trials=500 quick"),
              std::string::npos)
        << res.error;
}

TEST(CampaignCheckpoint, FailedLoadLeavesStoreUntouched)
{
    CampaignCheckpoint ckpt;
    ckpt.setCampaignId("keep-me");
    ckpt.set("cursor", "unit 1 shard 2");
    ASSERT_FALSE(
        ckpt.loadFile(dataPath("checkpoint_corrupt.ckpt")).ok);
    EXPECT_EQ(ckpt.campaignId(), "keep-me");
    EXPECT_EQ(ckpt.get("cursor"), "unit 1 shard 2");
}

TEST(CampaignCheckpoint, RejectsWrongMagicAndTrailingBytes)
{
    CampaignCheckpoint good;
    good.setCampaignId("x");
    const std::string text = good.serialize();

    CampaignCheckpoint ckpt;
    EXPECT_FALSE(ckpt.deserialize("not a checkpoint\n").ok);
    EXPECT_FALSE(ckpt.deserialize("").ok);
    EXPECT_FALSE(ckpt.deserialize(text + "junk\n").ok);
    // Unterminated final line = torn write.
    EXPECT_FALSE(
        ckpt.deserialize(text.substr(0, text.size() - 1)).ok);
    ASSERT_TRUE(ckpt.deserialize(text).ok);
}

TEST(CampaignCheckpoint, RejectsMissingFile)
{
    CampaignCheckpoint ckpt;
    const auto res = ckpt.loadFile(tmpPath("aiecc_no_such_file.ckpt"));
    ASSERT_FALSE(res.ok);
    EXPECT_NE(res.error.find("cannot read"), std::string::npos);
}

TEST(CampaignCheckpointDeath, BadSectionNamePanics)
{
    CampaignCheckpoint ckpt;
    EXPECT_DEATH(ckpt.set("has space", "x"), "section name");
    EXPECT_DEATH(ckpt.get("absent"), "no section");
}

// ---- runShardsCheckpointed ----

TEST(RunShardsCheckpointed, CompletesInContiguousBatches)
{
    clearStopRequest();
    uint64_t next = 0;
    std::vector<uint64_t> ran;
    std::vector<std::pair<uint64_t, uint64_t>> commits;
    const RunStatus status = runShardsCheckpointed(
        10, 4, 1, next, [&](uint64_t shard) { ran.push_back(shard); },
        [&](uint64_t begin, uint64_t end) {
            commits.emplace_back(begin, end);
        });
    EXPECT_EQ(status, RunStatus::Completed);
    EXPECT_EQ(next, 10u);
    ASSERT_EQ(ran.size(), 10u);
    for (uint64_t s = 0; s < 10; ++s)
        EXPECT_EQ(ran[s], s);
    const std::vector<std::pair<uint64_t, uint64_t>> want{
        {0, 4}, {4, 8}, {8, 10}};
    EXPECT_EQ(commits, want);
}

TEST(RunShardsCheckpointed, ResumesMidway)
{
    clearStopRequest();
    uint64_t next = 7; // as restored from a checkpoint
    std::vector<uint64_t> ran;
    std::vector<std::pair<uint64_t, uint64_t>> commits;
    const RunStatus status = runShardsCheckpointed(
        10, 4, 1, next, [&](uint64_t shard) { ran.push_back(shard); },
        [&](uint64_t begin, uint64_t end) {
            commits.emplace_back(begin, end);
        });
    EXPECT_EQ(status, RunStatus::Completed);
    EXPECT_EQ(next, 10u);
    EXPECT_EQ(ran, (std::vector<uint64_t>{7, 8, 9}));
    const std::vector<std::pair<uint64_t, uint64_t>> want{{7, 10}};
    EXPECT_EQ(commits, want);
}

TEST(RunShardsCheckpointed, AlreadyCompleteRunsNothing)
{
    clearStopRequest();
    uint64_t next = 10;
    bool invoked = false;
    const RunStatus status = runShardsCheckpointed(
        10, 4, 1, next, [&](uint64_t) { invoked = true; },
        [&](uint64_t, uint64_t) { invoked = true; });
    EXPECT_EQ(status, RunStatus::Completed);
    EXPECT_FALSE(invoked);
    EXPECT_EQ(next, 10u);
}

TEST(RunShardsCheckpointed, PendingStopInterruptsBeforeWork)
{
    requestStop();
    uint64_t next = 0;
    bool invoked = false;
    const RunStatus status = runShardsCheckpointed(
        10, 4, 1, next, [&](uint64_t) { invoked = true; },
        [&](uint64_t, uint64_t) {});
    clearStopRequest();
    EXPECT_EQ(status, RunStatus::Interrupted);
    EXPECT_FALSE(invoked);
    EXPECT_EQ(next, 0u);
}

TEST(RunShardsCheckpointed, StopDrainsBatchThenInterrupts)
{
    clearStopRequest();
    uint64_t next = 0;
    std::vector<uint64_t> ran;
    uint64_t committedEnd = 0;
    const RunStatus status = runShardsCheckpointed(
        10, 4, 1, next, [&](uint64_t shard) { ran.push_back(shard); },
        [&](uint64_t, uint64_t end) {
            committedEnd = end;
            // A signal lands while the first batch commits: the batch
            // is still committed, then the runner must stop cleanly.
            requestStop();
        });
    clearStopRequest();
    EXPECT_EQ(status, RunStatus::Interrupted);
    EXPECT_EQ(ran, (std::vector<uint64_t>{0, 1, 2, 3}));
    EXPECT_EQ(committedEnd, 4u);
    EXPECT_EQ(next, 4u); // first uncommitted shard
}

TEST(RunShardsCheckpointed, ZeroBatchDegradesToOne)
{
    clearStopRequest();
    uint64_t next = 0;
    std::vector<std::pair<uint64_t, uint64_t>> commits;
    const RunStatus status = runShardsCheckpointed(
        3, 0, 1, next, [](uint64_t) {},
        [&](uint64_t begin, uint64_t end) {
            commits.emplace_back(begin, end);
        });
    EXPECT_EQ(status, RunStatus::Completed);
    const std::vector<std::pair<uint64_t, uint64_t>> want{
        {0, 1}, {1, 2}, {2, 3}};
    EXPECT_EQ(commits, want);
}

// ---- batch-size policy ----

TEST(CheckpointBatchShards, EnvOverridesElseJobsScaled)
{
    ::setenv("AIECC_CHECKPOINT_BATCH_SHARDS", "123", 1);
    EXPECT_EQ(checkpointBatchShards(4), 123u);
    ::unsetenv("AIECC_CHECKPOINT_BATCH_SHARDS");
    EXPECT_EQ(checkpointBatchShards(16), 32u);
    EXPECT_EQ(checkpointBatchShards(1), 8u); // floor of 8
}

} // namespace
} // namespace aiecc
