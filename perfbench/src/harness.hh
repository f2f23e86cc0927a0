/**
 * @file
 * Shared machinery of the benchmark harness: command-line options,
 * the span recorder used by traced runs, golden output digests,
 * summary statistics and the result line.
 *
 * Every workload drives the gwc libraries through their public API
 * only; spans are recorded here, around those calls, never inside
 * the program.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <set>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);

/** Parsed command line of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;       ///< measured window per run
    bool trace = false;        ///< per-layer (traced) run
    std::string golden;        ///< pinned digest file
    std::string spansOut;      ///< span dump of a traced run ("" = none)
    std::string scratch = ".bench_out"; ///< sockets and cache dirs
};

/**
 * In-memory span recorder. A span has a name, a parent (the span open
 * on the same thread when it started), a start and an end. Recording
 * can be switched off between iterations, which is how a traced run
 * measures its own overhead. Thread safe.
 */
class Tracer
{
  public:
    struct Rec
    {
        std::string name;
        uint32_t id = 0;
        uint32_t parent = 0;   ///< 0 = root
        uint32_t tid = 0;
        int64_t beginNs = 0;
        int64_t endNs = -1;    ///< -1 while open
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its id, 0 when recording is off. */
    uint32_t open(const std::string &name);
    void close(uint32_t id);

    /**
     * For every closed root-level span named @p root, the summed
     * seconds of its descendant spans named @p name (0 when it has
     * none). One value per root, in start order.
     */
    std::vector<double> perRoot(const std::string &root,
                                const std::string &name) const;

    /** Durations (seconds) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON. */
    void write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Rec> recs_;   ///< recs_[id - 1]
    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
};

/** RAII span around one layer call (no-op while recording is off). */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~Span() { tracer_.close(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    uint32_t id_;
};

/** Pinned digests of program outputs ("name hex" lines). */
class Golden
{
  public:
    /** Load @p path; an unreadable file pins nothing (every check
     * then fails). */
    explicit Golden(const std::string &path);

    /** True when @p text hashes to the digest pinned as @p name.
     * A mismatch is reported on stderr once per name. */
    bool check(const std::string &name, const std::string &text);

  private:
    std::map<std::string, std::string> pinned_;
    std::set<std::string> reported_;
    std::mutex mu_;
};

/** FNV-1a hex digest of @p text. */
std::string digest(const std::string &text);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * The tail latency reported as req_p99_ms: p99 when at least ten
 * samples lie beyond it (n >= 1000), else the highest order
 * statistic that still has ten samples beyond it.
 */
double tailLatency(std::vector<double> v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/**
 * Workload order of suite iteration @p iteration of a run seeded with
 * @p seed: a seeded permutation of the registry, different in every
 * iteration, so a run's median averages over many orders instead of
 * resting on the one its seed happens to pick.
 */
std::vector<std::string> suiteOrder(uint64_t seed, uint64_t iteration);

/** The numbers one run reports. */
struct Outcome
{
    uint64_t attempted = 0;   ///< iterations or requests checked
    uint64_t failed = 0;      ///< of which failed or mismatched
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;              ///< name -> (value, unit), in order

    void add(const std::string &name, double value,
             const std::string &unit);
    void tally(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** The final stdout line: {"correct","attempted","failed","metrics"}. */
std::string resultLine(const Outcome &out);

/**
 * The per-layer metric names every traced run emits, with units.
 * Layers a workload does not exercise report 0.
 */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** Fill every layer metric missing from @p out with 0. */
void completeLayers(Outcome &out);

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetups = 3;

/**
 * The end-to-end figures of one slice of a measured window: one
 * iteration on cold_* and design_space, one second of requests on
 * served_mix.
 */
struct Slice
{
    double wallSec = 0;       ///< iteration wall (served: median request)
    double seconds = 0;       ///< slice length, the rate denominator
    uint64_t warpInstrs = 0;  ///< simulated in the slice
    std::vector<double> requestSec;   ///< every request's latency
    /** What each request of requestSec asked for (cold_* and
     * design_space: the workload); empty when requests are alike. */
    std::vector<std::string> requestKey;
    double probeSec = 0;      ///< speed probe right after the slice
};

/**
 * Seconds of one run of the host speed probe, a fixed interpreter loop
 * of about 25 ms. Call it between slices, never inside a timed one.
 */
double speedProbe();

/** Probe seconds of the reference host the times are rescaled to. */
constexpr double kProbeRefSec = 0.025;

/** Speed probes run right after each set-up. */
constexpr int kSetupProbes = 3;

/**
 * Add the end-to-end metrics of a run: the median over @p slices of
 * each slice's figure. For keyed requests, req_p50_ms and req_p99_ms
 * are the median and tail over the keys of each key's median latency;
 * otherwise the median over slices of each slice's median and tail.
 * (The tail of all the run's requests at once spread twice as much
 * between runs: slow phases of the host reach it.) setup_s is the
 * median of @p setups.
 *
 * The host's speed drifts by 20% and more over minutes, and CPU-bound
 * code and the probe slow down together. So each slice's times are
 * multiplied by kProbeRefSec / its probeSec, and its rates divided by
 * it; setup_s is multiplied by kProbeRefSec / median(@p setupProbes).
 * The figures are then those of a host on which the probe takes
 * kProbeRefSec.
 */
void addEndToEnd(Outcome &out, const std::vector<Slice> &slices,
                 const std::vector<double> &setups,
                 const std::vector<double> &setupProbes);

/**
 * The workloads. Each sets up kSetups times (the first timed from
 * @p processStart), measures for opts.seconds, and fills @p out with
 * the end-to-end metrics, or with per-layer metrics when opts.trace.
 */
void runCold(const Options &opts, unsigned jobs,
             Clock::time_point processStart, Tracer &tracer,
             Outcome &out);
void runDesignSpace(const Options &opts, Clock::time_point processStart,
                    Tracer &tracer, Outcome &out);
void runServedMix(const Options &opts, Clock::time_point processStart,
                  Tracer &tracer, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
