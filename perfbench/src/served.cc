/**
 * @file
 * served_mix: an in-process service::Server (two workers, one shared
 * result cache) on a scratch Unix socket, driven as a closed loop by
 * two client connections. Nine of every ten requests are warm
 * full-suite jobs answered from the cache; the tenth is a cold NN job
 * at a fresh CTA stride, so it misses, simulates and is admitted. The
 * seed picks which request of each ten is cold and which stride it
 * uses.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/flatjson.hh"
#include "common/rng.hh"
#include "harness.hh"
#include "metrics/profiler.hh"
#include "runtime/jobspec.hh"
#include "runtime/result_cache.hh"
#include "service/server.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace gwc;
namespace fs = std::filesystem;

constexpr uint32_t kWorkers = 2;   ///< server workers = client count
constexpr uint32_t kSessionJobs = 2;
constexpr uint64_t kStrideSpan = 10007;   ///< prime: strides unique

/** One blocking line-protocol connection to the server. */
class Client
{
  public:
    explicit Client(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw std::runtime_error("cannot connect to " + path);
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request line, return the response line. */
    std::string
    roundTrip(const std::string &line)
    {
        std::string msg = line + "\n";
        for (size_t off = 0; off < msg.size();) {
            ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off,
                               MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send failed");
            off += size_t(n);
        }
        char chunk[65536];
        size_t nl;
        while ((nl = buf_.find('\n')) == std::string::npos) {
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                throw std::runtime_error("connection closed");
            buf_.append(chunk, size_t(n));
        }
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

runtime::JobSpec
warmSpec()
{
    runtime::JobSpec spec;
    spec.session.tool = "perfbench";
    spec.session.suite.jobs = kSessionJobs;
    return spec;
}

/**
 * The cache fill: the warm job run at one job, because a parallel
 * fill's peak memory depends on which workloads happen to overlap.
 * Jobs are not part of the cache key, so it fills the warm job's
 * entries.
 */
runtime::JobSpec
fillSpec()
{
    runtime::JobSpec spec = warmSpec();
    spec.session.suite.jobs = 1;
    return spec;
}

runtime::JobSpec
coldSpec(uint32_t stride)
{
    runtime::JobSpec spec = warmSpec();
    spec.workloads = {"NN"};
    spec.session.suite.ctaSampleStride = stride;
    return spec;
}

std::string
submitLine(const std::string &id, const std::string &jobJson)
{
    return "{\"proto\":1,\"type\":\"submit\",\"id\":\"" + id +
           "\",\"job\":" + jobJson + "}";
}

/** Parse a submit response; nullopt-like failure as exit code 1. */
runtime::JobResult
parseResponse(const std::string &line)
{
    FlatJson doc = parseFlatJson("response", line);
    auto type = doc.strs.find("type");
    if (type == doc.strs.end() || type->second != "result") {
        runtime::JobResult bad;
        bad.exitCode = 1;
        return bad;
    }
    Result<runtime::JobResult> r =
        runtime::parseJobResultFlat(doc, "result");
    if (!r.ok()) {
        runtime::JobResult bad;
        bad.exitCode = 1;
        return bad;
    }
    return std::move(r.value());
}

/** The cache key the suite runner uses for a default-profiler job. */
runtime::WorkloadKey
suiteKey(const std::string &name)
{
    runtime::WorkloadKey key;
    key.workload = name;
    metrics::Profiler::Config pcfg;
    key.ilpWarpCap = pcfg.ilpWarpCap;
    key.ilpLanes = pcfg.ilpLanes;
    key.reuseCap = pcfg.reuseCap;
    key.perLaunch = pcfg.perLaunch;
    return key;
}

/** A server with its own scratch directory and cache. */
struct Instance
{
    std::string dir;
    std::unique_ptr<service::Server> server;

    Instance(const std::string &scratch, int rep)
        : dir(scratch + "/served-" + std::to_string(::getpid()) + "-" +
              std::to_string(rep))
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        service::ServerConfig cfg;
        cfg.unixSocket = dir + "/s.sock";
        cfg.workers = kWorkers;
        cfg.cacheDir = dir + "/cache";
        cfg.maxSessionJobs = kSessionJobs;
        server = std::make_unique<service::Server>(cfg);
        server->start();
    }
    ~Instance()
    {
        server->stop(true);
        server.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    Instance(const Instance &) = delete;
    Instance &operator=(const Instance &) = delete;

    std::string socket() const { return server->config().unixSocket; }
    std::string cacheDir() const { return server->config().cacheDir; }
};

/** Result of one served request. */
struct Sample
{
    double sec = 0;
    bool cold = false;
    bool ok = false;
};

/** Length of one served_mix slice of the measured window. */
constexpr double kSliceSec = 1.0;

/** The seeded request schedule (which request misses, at what stride). */
struct Schedule
{
    uint64_t seed;

    /** Stride of request @p n when it is the cold one of its ten,
     * else 0. Each block of ten has exactly one cold request with a
     * stride no other block uses. */
    uint32_t
    coldStride(uint64_t n) const
    {
        const uint64_t block = n / 10;
        if (n % 10 != Rng(seed ^ (block * 0x9E3779B97F4A7C15ull)).next() % 10)
            return 0;
        const uint64_t a = 1 + seed % (kStrideSpan - 1);
        return uint32_t(2 + (a * block + seed) % kStrideSpan);
    }
};

/** Check a response against the request it answers. */
bool
verify(const runtime::JobResult &r, bool cold, Golden &golden)
{
    if (r.exitCode != 0)
        return false;
    if (cold)
        return r.cacheMisses == 1 && r.rows.size() == 1 &&
               r.rows[0].verified && !r.profilesCsv.empty();
    return r.cacheHits == r.rows.size() && r.cacheMisses == 0 &&
           golden.check("served_s1", r.profilesCsv);
}

} // anonymous namespace

void
runServedMix(const Options &opts, Clock::time_point processStart,
             Tracer &tracer, Outcome &out)
{
    Golden golden(opts.golden);
    const std::string warmJson = warmSpec().toJson();
    const std::string fillJson = fillSpec().toJson();
    fs::create_directories(opts.scratch);

    // Set-up: server start, cache fill (the first, cold full-suite
    // job) and one warm request. Earlier instances are torn down.
    std::unique_ptr<Instance> inst;
    std::vector<double> setups, setupProbes;
    // A cold NN job simulates every CTA whatever its sampling stride,
    // so each one executes the warp instructions of a stride-1 run.
    uint64_t nnInstrs = 0;
    for (int r = 0; r < kSetups; ++r) {
        auto t0 = r == 0 ? processStart : Clock::now();
        inst.reset();
        inst = std::make_unique<Instance>(opts.scratch, r);
        Client c(inst->socket());
        runtime::JobResult fill =
            parseResponse(c.roundTrip(submitLine("fill", fillJson)));
        out.tally(fill.exitCode == 0 &&
                  golden.check("served_s1", fill.profilesCsv));
        for (const auto &row : fill.rows)
            if (row.name == "NN")
                nnInstrs = row.warpInstrs;
        out.tally(verify(parseResponse(c.roundTrip(
                             submitLine("warm", warmJson))),
                         false, golden));
        setups.push_back(since(t0));
        for (int i = 0; i < kSetupProbes; ++i)
            setupProbes.push_back(speedProbe());
    }

    const Schedule sched{opts.seed};
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> depthMax{0};
    const auto rejectedBefore = inst->server->counters().jobsRejected;
    const auto hitsBefore = inst->server->counters().cacheHits;
    const auto missesBefore = inst->server->counters().cacheMisses;

    // One closed-loop client: send, wait for the answer, check it,
    // repeat until the deadline (at least once).
    auto client = [&](Clock::time_point deadline,
                      std::vector<Sample> &samples) {
        Client conn(inst->socket());
        do {
            const uint64_t n = next.fetch_add(1);
            const uint32_t stride = sched.coldStride(n);
            const std::string line = submitLine(
                std::to_string(n),
                stride ? coldSpec(stride).toJson() : warmJson);
            if (tracer.enabled()) {
                uint64_t d = inst->server->counters().queueDepth;
                uint64_t m = depthMax.load();
                while (d > m && !depthMax.compare_exchange_weak(m, d)) {
                }
            }
            Sample s;
            s.cold = stride != 0;
            std::string resp;
            {
                Span span(tracer, "request");
                auto t0 = Clock::now();
                resp = conn.roundTrip(line);
                s.sec = since(t0);
            }
            s.ok = verify(parseResponse(resp), s.cold, golden);
            samples.push_back(s);
        } while (Clock::now() < deadline);
    };
    // Run both clients for @p seconds; returns the time taken, which
    // includes the requests still in flight at the deadline.
    auto drive = [&](double seconds, std::vector<Sample> &samples) {
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        std::vector<std::vector<Sample>> per(kWorkers);
        std::vector<std::thread> clients;
        for (uint32_t c = 0; c < kWorkers; ++c) {
            clients.emplace_back([&, c] {
                try {
                    client(deadline, per[c]);
                } catch (const std::exception &e) {
                    // A broken connection counts as one failed request.
                    std::cerr << "perfbench: client " << c << ": "
                              << e.what() << "\n";
                    per[c].push_back(Sample{});
                }
            });
        }
        for (auto &t : clients)
            t.join();
        for (auto &v : per)
            samples.insert(samples.end(), v.begin(), v.end());
        return since(start);
    };

    if (!opts.trace) {
        // One drive per slice; the clients stop between slices, and the
        // host speed is probed then.
        std::vector<Slice> slices;
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(opts.seconds);
        do {
            std::vector<Sample> samples;
            Slice slice;
            slice.seconds = drive(kSliceSec, samples);
            for (const auto &s : samples) {
                out.tally(s.ok);
                slice.requestSec.push_back(s.sec);
                if (s.cold)
                    slice.warpInstrs += nnInstrs;
            }
            slice.wallSec = median(slice.requestSec);
            slice.probeSec = speedProbe();
            slices.push_back(std::move(slice));
        } while (Clock::now() < deadline);
        addEndToEnd(out, slices, setups, setupProbes);
        return;
    }

    // Tally a window's samples; returns their latencies.
    auto latencies = [&](const std::vector<Sample> &samples) {
        std::vector<double> lat;
        for (const auto &s : samples) {
            out.tally(s.ok);
            lat.push_back(s.sec);
        }
        return lat;
    };

    // A traced run spends the first half of its window untraced, for
    // the overhead comparison, and the second half traced.
    std::vector<Sample> plainSamples, tracedSamples;
    drive(opts.seconds / 2, plainSamples);
    tracer.setEnabled(true);
    drive(opts.seconds / 2, tracedSamples);
    const std::vector<double> plainLat = latencies(plainSamples);
    const std::vector<double> tracedLat = latencies(tracedSamples);
    const auto c = inst->server->counters();
    const uint64_t hits = c.cacheHits - hitsBefore;
    const uint64_t lookups = hits + c.cacheMisses - missesBefore;

    // Layer probes, each call in its own span.
    runtime::ResultCache ro({inst->cacheDir(),
                             runtime::CacheMode::ReadOnly});
    runtime::ResultCache rw({inst->cacheDir(),
                             runtime::CacheMode::ReadWrite});
    const auto names = workloads::workloadNames();
    std::optional<runtime::CachedWorkloadResult> sampleEntry;
    for (int rep = 0; rep < 5; ++rep) {
        for (const auto &name : names) {
            Span s(tracer, "cache.lookupWorkload");
            auto hit = ro.lookupWorkload(suiteKey(name));
            if (!hit)
                out.tally(false);
            else if (!sampleEntry)
                sampleEntry = std::move(hit);
        }
    }
    for (int rep = 0; sampleEntry && rep < 10; ++rep) {
        runtime::WorkloadKey key = suiteKey(sampleEntry->abbrev);
        key.extra.emplace_back("perfbench-store", std::to_string(rep));
        Span s(tracer, "cache.storeWorkload");
        out.tally(rw.storeWorkload(key, *sampleEntry));
    }
    Client probe(inst->socket());
    const runtime::JobResult warmResult =
        parseResponse(probe.roundTrip(submitLine("probe", warmJson)));
    const std::string resultJson = warmResult.toJson();
    for (int rep = 0; rep < 200; ++rep) {
        Span s(tracer, "runtime.jobspec");
        bool ok = runtime::parseJobSpec("spec", warmJson).ok();
        ok = !warmResult.toJson().empty() && ok;
        ok = runtime::parseJobResult("result", resultJson).ok() && ok;
        if (!ok)
            out.tally(false);
    }
    runtime::JobSpec local = runtime::parseJobSpec("spec", warmJson)
                                 .value();
    local.session.cacheDir = inst->cacheDir();
    for (int rep = 0; rep < 10; ++rep) {
        {
            Span s(tracer, "service.roundtrip");
            probe.roundTrip(submitLine("probe", warmJson));
        }
        Span s(tracer, "runtime.runJobLocally");
        runtime::runJobLocally(local);
    }
    tracer.setEnabled(false);

    out.add("cache.lookup_us",
            median(tracer.durations("cache.lookupWorkload")) * 1e6, "us");
    out.add("cache.hit_ratio",
            lookups ? double(hits) / double(lookups) : 0, "ratio");
    out.add("cache.lookups", double(lookups), "count");
    out.add("cache.stale", double(ro.counters().stale.load()), "count");
    out.add("cache.store_ms",
            median(tracer.durations("cache.storeWorkload")) * 1e3, "ms");
    out.add("runtime.jobspec_us",
            median(tracer.durations("runtime.jobspec")) * 1e6, "us");
    out.add("service.overhead_ms",
            (median(tracer.durations("service.roundtrip")) -
             median(tracer.durations("runtime.runJobLocally"))) *
                1e3,
            "ms");
    out.add("service.queue_depth_max", double(depthMax.load()), "count");
    out.add("service.rejected", double(c.jobsRejected - rejectedBefore),
            "count");
    out.add("trace.overhead_s", median(tracedLat) - median(plainLat), "s");
}

} // namespace perfbench
