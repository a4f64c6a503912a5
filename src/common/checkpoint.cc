#include "common/checkpoint.hh"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace aiecc
{

namespace
{

std::atomic<bool> gStopRequested{false};
std::atomic<bool> gHandlersInstalled{false};

extern "C" void
stopSignalHandler(int)
{
    // Async-signal-safe: one relaxed store.  SA_RESETHAND below
    // restores the default disposition, so a second signal kills.
    gStopRequested.store(true, std::memory_order_relaxed);
}

/**
 * FNV-1a 64-bit.  Deliberately local: common/ sits below obs/, so the
 * checkpoint format cannot borrow obs::lineageHash — but it uses the
 * same constants, and the digests agree for identical bytes.
 */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 0xCBF29CE484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

constexpr const char *magicLine = "aiecc-checkpoint v1";

/**
 * Parse the decimal number at @p from in header @p line into @p out:
 * the offset just past its digits, or 0 (never valid — every number
 * follows a keyword) when there are none or they overflow.
 */
size_t
parseDecimal(const std::string &line, size_t from, uint64_t &out)
{
    const char *begin = line.data() + from;
    const auto [stop, ec] =
        std::from_chars(begin, line.data() + line.size(), out);
    if (ec != std::errc() || stop == begin)
        return 0;
    return static_cast<size_t>(stop - line.data());
}

// ---- AIECC_CRASH_AFTER_SHARD / AIECC_SIGNAL_AFTER_SHARD ----

/** A shard-count threshold from @p var (0 = unset). */
uint64_t
parseShardThreshold(const char *var)
{
    const char *env = std::getenv(var);
    if (!env || !*env)
        return 0;
    return std::strtoull(env, nullptr, 10);
}

uint64_t
parseCrashThreshold()
{
    return parseShardThreshold("AIECC_CRASH_AFTER_SHARD");
}

std::atomic<uint64_t> gShardsCompleted{0};

/** Hard-kill once the process-wide completed-shard count crosses N. */
void
maybeCrashAfterShards(uint64_t justCompleted)
{
    static const uint64_t threshold = parseCrashThreshold();
    if (!threshold)
        return;
    const uint64_t done =
        gShardsCompleted.fetch_add(justCompleted) + justCompleted;
    if (done >= threshold) {
        std::fprintf(stderr,
                     "AIECC_CRASH_AFTER_SHARD: simulating hard kill "
                     "after %llu completed shard(s)\n",
                     static_cast<unsigned long long>(done));
        std::fflush(stderr);
        std::_Exit(137); // as if SIGKILLed: no atexit, no flush
    }
}

std::atomic<uint64_t> gShardsCommitted{0};

/**
 * Raise one real SIGTERM once the process-wide committed-shard count
 * crosses N: the stop handler, the drain, the final save and the
 * resumable exit then all run as they would for an operator's kill,
 * at a point fixed by progress rather than by wall time.
 */
void
maybeSignalAfterShards(uint64_t justCommitted)
{
    static const uint64_t threshold =
        parseShardThreshold("AIECC_SIGNAL_AFTER_SHARD");
    if (!threshold)
        return;
    const uint64_t before = gShardsCommitted.fetch_add(justCommitted);
    if (before < threshold && before + justCommitted >= threshold) {
        std::fprintf(stderr,
                     "AIECC_SIGNAL_AFTER_SHARD: raising SIGTERM after "
                     "%llu committed shard(s)\n",
                     static_cast<unsigned long long>(before +
                                                     justCommitted));
        std::fflush(stderr);
        std::raise(SIGTERM);
    }
}

} // namespace

void
installStopHandlers()
{
    if (gHandlersInstalled.exchange(true))
        return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = stopSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

bool
stopRequested()
{
    return gStopRequested.load(std::memory_order_relaxed);
}

void
requestStop()
{
    gStopRequested.store(true, std::memory_order_relaxed);
}

void
clearStopRequest()
{
    gStopRequested.store(false, std::memory_order_relaxed);
}

uint64_t
crashAfterShardThreshold()
{
    return parseCrashThreshold();
}

// ---- CampaignCheckpoint ----

void
CampaignCheckpoint::setCampaignId(const std::string &campaignId)
{
    if (campaignId.find('\n') != std::string::npos)
        AIECC_PANIC("campaign ID must be a single line");
    id = campaignId;
}

void
CampaignCheckpoint::setProgressNote(const std::string &note)
{
    if (note.find('\n') != std::string::npos)
        AIECC_PANIC("progress note must be a single line");
    progress = note;
}

bool
CampaignCheckpoint::has(const std::string &name) const
{
    return sections.find(name) != sections.end();
}

const std::string &
CampaignCheckpoint::get(const std::string &name) const
{
    const auto it = sections.find(name);
    if (it == sections.end())
        AIECC_PANIC("checkpoint has no section '" << name << "'");
    return it->second;
}

void
CampaignCheckpoint::set(const std::string &name, std::string data)
{
    if (name.empty() || name.find_first_of(" \n") != std::string::npos)
        AIECC_PANIC("bad checkpoint section name '" << name << "'");
    sections[name] = std::move(data);
}

void
CampaignCheckpoint::erase(const std::string &name)
{
    sections.erase(name);
}

std::string
CampaignCheckpoint::serialize() const
{
    // Header and length-prefixed sections (payloads are raw bytes and
    // may contain anything, including newlines), then a digest line
    // over everything above it.  std::map iteration keeps the section
    // order — and therefore the bytes — canonical.
    std::ostringstream out;
    out << magicLine << '\n';
    out << "campaign " << id << '\n';
    out << "progress " << progress << '\n';
    out << "sections " << sections.size() << '\n';
    for (const auto &[name, data] : sections) {
        out << "section " << data.size() << ' ' << name << '\n';
        out << data;
        out << '\n';
    }
    const std::string body = out.str();
    return body + "digest " + hex16(fnv1a(body)) + "\n";
}

CampaignCheckpoint::Load
CampaignCheckpoint::deserialize(const std::string &text)
{
    CampaignCheckpoint fresh;
    Load result;

    // Parsed-so-far context for diagnostics: once the header is in,
    // a failure can still name the last good progress state.
    std::string seenId, seenProgress;
    const auto fail = [&](const std::string &why) {
        result.ok = false;
        result.error = why;
        if (!seenId.empty()) {
            result.error += "; last good state: campaign '" + seenId +
                            "', " +
                            (seenProgress.empty() ? "no progress note"
                                                  : seenProgress);
        }
        return result;
    };

    size_t pos = 0;
    const auto nextLine = [&](std::string &line) {
        if (pos >= text.size())
            return false;
        const size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            return false; // unterminated line = truncated write
        line = text.substr(pos, eol - pos);
        pos = eol + 1;
        return true;
    };

    std::string line;
    if (!nextLine(line) || line != magicLine)
        return fail("not an aiecc-checkpoint v1 file");
    if (!nextLine(line) || line.rfind("campaign ", 0) != 0)
        return fail("missing campaign header");
    fresh.id = seenId = line.substr(9);
    if (!nextLine(line) || line.rfind("progress ", 0) != 0)
        return fail("missing progress header");
    fresh.progress = seenProgress = line.substr(9);
    uint64_t count = 0;
    if (!nextLine(line) || line.rfind("sections ", 0) != 0 ||
        parseDecimal(line, 9, count) != line.size())
        return fail("missing section count");

    for (uint64_t i = 0; i < count; ++i) {
        if (!nextLine(line) || line.rfind("section ", 0) != 0)
            return fail("truncated checkpoint: expected section " +
                        std::to_string(i + 1) + " of " +
                        std::to_string(count));
        uint64_t size = 0;
        const size_t end = parseDecimal(line, 8, size);
        if (end + 1 >= line.size() || line[end] != ' ')
            return fail("malformed section framing");
        const std::string name = line.substr(end + 1);
        if (text.size() - pos <= size) {
            return fail("truncated checkpoint: section '" + name +
                        "' payload cut short");
        }
        if (fresh.sections.count(name))
            return fail("duplicate section '" + name + "'");
        fresh.sections[name] = text.substr(pos, size);
        pos += size;
        if (text[pos] != '\n')
            return fail("section '" + name + "' payload overruns");
        ++pos;
    }

    const size_t digestAt = pos;
    if (!nextLine(line) || line.rfind("digest ", 0) != 0)
        return fail("truncated checkpoint: digest line missing");
    const std::string want = hex16(fnv1a(text.substr(0, digestAt)));
    if (line.substr(7) != want)
        return fail("checkpoint digest mismatch (file corrupt)");
    if (pos != text.size())
        return fail("trailing bytes after checkpoint digest");

    *this = std::move(fresh);
    result.ok = true;
    return result;
}

CampaignCheckpoint::Load
CampaignCheckpoint::saveAtomic(const std::string &path) const
{
    Load result;
    const auto fail = [&](const std::string &why) {
        result.ok = false;
        result.error = why + ": " + std::strerror(errno);
        return result;
    };

    const std::string data = serialize();
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        return fail("cannot open " + tmp);
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            return fail("cannot write " + tmp);
        }
        off += static_cast<size_t>(n);
    }
    // The fsync-before-rename is the durability half of atomicity: a
    // crash after the rename must find the *new* bytes, not a hole.
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return fail("cannot fsync " + tmp);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        return fail("cannot close " + tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return fail("cannot rename " + tmp + " over " + path);
    }
    result.ok = true;
    return result;
}

CampaignCheckpoint::Load
CampaignCheckpoint::loadFile(const std::string &path)
{
    Load result;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        result.error = "cannot read " + path + ": " +
                       std::strerror(errno);
        return result;
    }
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    const bool readError = std::ferror(f);
    std::fclose(f);
    if (readError) {
        result.error = "read error on " + path;
        return result;
    }
    result = deserialize(text);
    if (!result.ok)
        result.error = path + ": " + result.error;
    return result;
}

// ---- Checkpointed batch runner ----

RunStatus
runShardsCheckpointed(uint64_t totalShards, uint64_t batchShards,
                      unsigned jobs, uint64_t &nextShard,
                      const std::function<void(uint64_t)> &fn,
                      const std::function<void(uint64_t, uint64_t)> &commit,
                      const std::function<void(uint64_t)> &progress)
{
    if (!batchShards)
        batchShards = 1;
    while (nextShard < totalShards) {
        if (stopRequested())
            return RunStatus::Interrupted;
        const uint64_t begin = nextShard;
        const uint64_t end =
            totalShards - begin < batchShards ? totalShards
                                              : begin + batchShards;
        runShards(end - begin, jobs,
                  [&](uint64_t i) { fn(begin + i); },
                  progress ? [&](uint64_t done) { progress(begin + done); }
                           : std::function<void(uint64_t)>());
        // The simulated kill strikes after the work but before the
        // commit: the on-disk state is strictly older than the batch,
        // and resume must redo it bit-identically.
        maybeCrashAfterShards(end - begin);
        commit(begin, end);
        nextShard = end;
        maybeSignalAfterShards(end - begin);
    }
    return RunStatus::Completed;
}

uint64_t
checkpointBatchShards(unsigned jobs)
{
    const char *env = std::getenv("AIECC_CHECKPOINT_BATCH_SHARDS");
    if (env && *env) {
        const uint64_t v = std::strtoull(env, nullptr, 10);
        if (v)
            return v;
    }
    const uint64_t byJobs = 2ULL * resolveJobs(jobs);
    return byJobs < 8 ? 8 : byJobs;
}

} // namespace aiecc
