#include "obs/heartbeat.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>

#include "obs/memprof.hh"

namespace aiecc
{
namespace obs
{

namespace
{

// SIGUSR1 sets a flag the next tick consumes; the handler itself
// does nothing else (async-signal-safe by construction).
std::atomic<bool> gForceDump{false};

void
onForceDump(int)
{
    gForceDump.store(true, std::memory_order_relaxed);
}

void
installForceDumpHandler()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    struct sigaction sa = {};
    sa.sa_handler = onForceDump;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART; // a heartbeat poke must not abort I/O
    sigaction(SIGUSR1, &sa, nullptr);
}

} // namespace

bool
HeartbeatEmitter::open(const std::string &path,
                       const std::string &campaignId)
{
    if (path.empty())
        return false;
    std::lock_guard<std::mutex> guard(mtx);
    // Append: a resumed campaign continues its existing log, so the
    // file tells the whole multi-session story in order.
    out = std::fopen(path.c_str(), "a");
    if (!out)
        return false;
    campaign = campaignId;
    if (const char *ms = std::getenv("AIECC_HEARTBEAT_INTERVAL_MS"))
        intervalMs = std::strtoull(ms, nullptr, 10);
    opened = std::chrono::steady_clock::now();
    lastEmit = opened;
    installForceDumpHandler();
    return true;
}

void
HeartbeatEmitter::setTotals(uint64_t shards, uint64_t trials)
{
    std::lock_guard<std::mutex> guard(mtx);
    totalShards = shards;
    totalTrials = trials;
}

void
HeartbeatEmitter::setNote(const std::string &n)
{
    std::lock_guard<std::mutex> guard(mtx);
    note = n;
}

void
HeartbeatEmitter::setPayload(std::function<void(JsonWriter &)> fn)
{
    std::lock_guard<std::mutex> guard(mtx);
    payload = std::move(fn);
}

void
HeartbeatEmitter::tick(uint64_t shardsDone, uint64_t trialsDone)
{
    if (!out)
        return;
    std::lock_guard<std::mutex> guard(mtx);
    if (!out)
        return;
    const bool forced =
        gForceDump.exchange(false, std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    const bool first = !ticked;
    if (first) {
        // Session-relative rate baseline: on a resume, trialsDone
        // already includes earlier sessions' work, which must not
        // inflate this session's throughput or deflate its ETA.
        ticked = true;
        opened = now;
        baseTrials = trialsDone;
    }
    const uint64_t sinceMs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - lastEmit)
            .count());
    if (first || forced || intervalMs == 0 || sinceMs >= intervalMs)
        emit(shardsDone, trialsDone, forced);
}

void
HeartbeatEmitter::finalTick(uint64_t shardsDone, uint64_t trialsDone)
{
    if (!out)
        return;
    std::lock_guard<std::mutex> guard(mtx);
    if (!out)
        return;
    if (!ticked) {
        ticked = true;
        opened = std::chrono::steady_clock::now();
        baseTrials = trialsDone;
    }
    emit(shardsDone, trialsDone, false);
}

void
HeartbeatEmitter::close()
{
    std::lock_guard<std::mutex> guard(mtx);
    if (!out)
        return;
    std::fclose(out);
    out = nullptr;
}

void
HeartbeatEmitter::emit(uint64_t shardsDone, uint64_t trialsDone,
                       bool forced)
{
    // Pool workers tick with the count they computed, and two of them
    // can reach the lock out of order: report the furthest seen.
    shardsDone = maxShards = std::max(maxShards, shardsDone);
    trialsDone = maxTrials = std::max(maxTrials, trialsDone);
    const auto now = std::chrono::steady_clock::now();
    const double elapsedS =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            now - opened)
            .count();
    const double sessionTrials =
        trialsDone >= baseTrials
            ? static_cast<double>(trialsDone - baseTrials)
            : 0.0;
    const double rate = elapsedS > 0.0 ? sessionTrials / elapsedS : 0.0;
    const double remaining =
        totalTrials > trialsDone
            ? static_cast<double>(totalTrials - trialsDone)
            : 0.0;
    const double etaS = rate > 0.0 ? remaining / rate : 0.0;

    JsonWriter w(0);
    w.beginObject();
    w.kv("type", "heartbeat");
    w.kv("seq", ++seq);
    w.kv("campaign", campaign);
    if (!note.empty())
        w.kv("note", note);
    w.kv("shards_done", shardsDone);
    w.kv("shards_total", totalShards);
    w.kv("trials_done", trialsDone);
    w.kv("trials_total", totalTrials);
    w.kv("elapsed_s", elapsedS);
    w.kv("trials_per_s", rate);
    w.kv("eta_s", etaS);
    w.kv("forced", forced);
    const memprof::ProcessTotals t = memprof::processTotals();
    w.kv("alloc_allocs", t.allocs);
    w.kv("alloc_frees", t.frees);
    w.kv("alloc_bytes", t.allocBytes);
    w.kv("alloc_free_bytes", t.freeBytes);
    w.kv("alloc_live_bytes", t.liveBytes);
    w.kv("alloc_peak_live_bytes", t.peakLiveBytes);
    if (payload)
        payload(w);
    w.endObject();

    std::fputs(w.str().c_str(), out);
    std::fputc('\n', out);
    std::fflush(out);
    lastEmit = now;
}

} // namespace obs
} // namespace aiecc
