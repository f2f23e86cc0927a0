#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "telemetry/stats.hh"
#include "timing/gpu.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

/** The span open on the calling thread (0 = none). */
thread_local uint32_t tlsCurrent = 0;

uint32_t
threadTag()
{
    return uint32_t(std::hash<std::thread::id>()(std::this_thread::get_id()) &
                    0xffffff);
}

/** Shortest round-trip decimal of @p v. */
std::string
numStr(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // anonymous namespace

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint32_t
Tracer::open(const std::string &name)
{
    if (!enabled_)
        return 0;
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    Rec r;
    r.name = name;
    r.id = uint32_t(recs_.size() + 1);
    r.parent = tlsCurrent;
    r.tid = threadTag();
    r.beginNs = now;
    recs_.push_back(std::move(r));
    tlsCurrent = recs_.back().id;
    return tlsCurrent;
}

void
Tracer::close(uint32_t id)
{
    if (id == 0)
        return;
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    Rec &r = recs_[id - 1];
    r.endNs = now;
    tlsCurrent = r.parent;
}

std::vector<double>
Tracer::perRoot(const std::string &root, const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Root ancestor of every span (parents always precede children).
    std::vector<uint32_t> rootOf(recs_.size() + 1, 0);
    std::map<uint32_t, double> sums;
    std::vector<uint32_t> roots;
    for (const Rec &r : recs_) {
        rootOf[r.id] = r.parent == 0 ? r.id : rootOf[r.parent];
        if (r.parent == 0 && r.name == root && r.endNs >= 0) {
            roots.push_back(r.id);
            sums[r.id] = 0;
        }
    }
    for (const Rec &r : recs_) {
        if (r.name != name || r.endNs < 0 || r.parent == 0)
            continue;
        auto it = sums.find(rootOf[r.id]);
        if (it != sums.end())
            it->second += double(r.endNs - r.beginNs) * 1e-9;
    }
    std::vector<double> out;
    for (uint32_t id : roots)
        out.push_back(sums[id]);
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Rec &r : recs_)
        if (r.name == name && r.endNs >= 0)
            out.push_back(double(r.endNs - r.beginNs) * 1e-9);
    return out;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        std::cerr << "perfbench: cannot write spans to " << path << "\n";
        return;
    }
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Rec &r : recs_) {
        if (r.endNs < 0)
            continue;
        os << (first ? "\n" : ",\n") << "{\"name\":\""
           << gwc::telemetry::jsonEscape(r.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
           << ",\"ts\":" << numStr(double(r.beginNs) / 1e3)
           << ",\"dur\":" << numStr(double(r.endNs - r.beginNs) / 1e3)
           << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
           << "}}";
        first = false;
    }
    os << "\n]}\n";
}

Golden::Golden(const std::string &path)
{
    std::ifstream is(path);
    std::string name, hex;
    while (is >> name >> hex)
        pinned_[name] = hex;
}

bool
Golden::check(const std::string &name, const std::string &text)
{
    const std::string got = digest(text);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pinned_.find(name);
    if (it != pinned_.end() && it->second == got)
        return true;
    if (reported_.insert(name).second) {
        std::cerr << "perfbench: digest mismatch for " << name
                  << ": got " << got << ", pinned "
                  << (it == pinned_.end() ? "(none)" : it->second)
                  << "\n";
    }
    return false;
}

std::string
digest(const std::string &text)
{
    return gwc::hex64(gwc::fnv1a64(text));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
tailLatency(std::vector<double> v)
{
    if (v.size() >= 1000)
        return quantile(std::move(v), 0.99);
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[v.size() > 10 ? v.size() - 11 : 0];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is KiB
}

std::vector<std::string>
suiteOrder(uint64_t seed, uint64_t iteration)
{
    std::vector<std::string> names = gwc::workloads::workloadNames();
    gwc::Rng rng(seed ^ (iteration * 0x9E3779B97F4A7C15ull));
    for (size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[rng.next() % i]);
    return names;
}

void
Outcome::add(const std::string &name, double value,
             const std::string &unit)
{
    metrics.emplace_back(name, std::make_pair(value, unit));
}

std::string
resultLine(const Outcome &out)
{
    std::ostringstream os;
    os << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : out.metrics) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << numStr(vu.first) << ", \"unit\": \""
           << vu.second << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

void
addEndToEnd(Outcome &out, const std::vector<Slice> &slices,
            const std::vector<double> &setups,
            const std::vector<double> &setupProbes)
{
    std::vector<double> wall, winstr, p50, p99, rate, scales, unscaledWall;
    std::map<std::string, std::vector<double>> perKey;
    size_t requests = 0;
    for (const Slice &s : slices) {
        const double k = kProbeRefSec / s.probeSec;
        const double secs = s.seconds * k;
        requests += s.requestSec.size();
        scales.push_back(k);
        unscaledWall.push_back(s.wallSec);
        wall.push_back(s.wallSec * k);
        winstr.push_back(secs > 0 ? double(s.warpInstrs) / secs : 0);
        rate.push_back(secs > 0 ? double(s.requestSec.size()) / secs : 0);
        p50.push_back(median(s.requestSec) * k);
        p99.push_back(tailLatency(s.requestSec) * k);
        for (size_t i = 0; i < s.requestKey.size(); ++i)
            perKey[s.requestKey[i]].push_back(s.requestSec[i] * k);
    }
    double reqP50 = median(p50), reqP99 = median(p99);
    if (!perKey.empty()) {
        std::vector<double> keyMedians;
        for (const auto &[key, secs] : perKey)
            keyMedians.push_back(median(secs));
        reqP50 = median(keyMedians);
        reqP99 = tailLatency(keyMedians);
    }
    const double setupScale = kProbeRefSec / median(setupProbes);
    out.add("wall_s", median(wall), "s");
    out.add("winstr_per_s", median(winstr), "1/s");
    out.add("req_p50_ms", reqP50 * 1e3, "ms");
    out.add("req_p99_ms", reqP99 * 1e3, "ms");
    out.add("req_per_s", median(rate), "1/s");
    out.add("setup_s", median(setups) * setupScale, "s");
    std::cerr << "perfbench: " << slices.size() << " slices, " << requests
              << " requests, " << setups.size() << " set-ups\n"
              << "perfbench: unscaled wall_s " << median(unscaledWall)
              << ", setup_s " << median(setups) << "; median scale "
              << median(scales) << ", set-up scale " << setupScale << "\n";
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list =
        [] {
            std::vector<std::pair<std::string, std::string>> l = {
                {"workloads.setup_s", "s"},
                {"workloads.verify_s", "s"},
                {"simt.exec_s", "s"},
                {"hooks.dispatch_s", "s"},
                {"metrics.analysis_s", "s"},
                {"metrics.finalize_s", "s"},
                {"simt.warp_instrs", "count"},
                {"hooks.events", "count"},
                {"simt.ns_per_warp_instr", "ns"},
                {"stats.pca_s", "s"},
                {"cluster.kmeans_s", "s"},
                {"threadpool.idle_frac", "ratio"},
                {"threadpool.steals", "count"},
                {"threadpool.failed_steals", "count"},
                {"threadpool.caller_task_frac", "ratio"},
                {"suite.critical_path_s", "s"},
                {"simt.cta_speedup", "x"},
                {"timing.capture_s", "s"},
                {"timing.model_s", "s"},
            };
            for (const auto &cfg : gwc::timing::designSpace())
                l.emplace_back("timing.model_s." + cfg.name, "s");
            const std::vector<std::pair<std::string, std::string>> tail = {
                {"timing.trace_ops", "count"},
                {"timing.sim_cycles", "count"},
                {"timing.l1_misses", "count"},
                {"timing.ns_per_op", "ns"},
                {"cache.lookup_us", "us"},
                {"cache.hit_ratio", "ratio"},
                {"cache.lookups", "count"},
                {"cache.stale", "count"},
                {"cache.store_ms", "ms"},
                {"runtime.jobspec_us", "us"},
                {"service.overhead_ms", "ms"},
                {"service.queue_depth_max", "count"},
                {"service.rejected", "count"},
                {"trace.overhead_s", "s"},
            };
            l.insert(l.end(), tail.begin(), tail.end());
            return l;
        }();
    return list;
}

void
completeLayers(Outcome &out)
{
    std::map<std::string, double> have;
    for (const auto &[name, vu] : out.metrics)
        have[name] = vu.first;
    out.metrics.clear();
    for (const auto &[name, unit] : layerMetrics()) {
        auto it = have.find(name);
        out.add(name, it == have.end() ? 0.0 : it->second, unit);
    }
}

} // namespace perfbench
