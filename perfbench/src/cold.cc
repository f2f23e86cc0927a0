/**
 * @file
 * cold_serial / cold_parallel: the paper's characterization campaign.
 * One iteration is the full 28-workload suite at scale 2 through
 * workloads::runSuite (cache off, verify on), the order-insensitive
 * profile digest check, then PCA and k-means on the kernel matrix.
 *
 * A traced run adds the instrumentation ladder: every workload's
 * Workload::run repeated bare, under a do-nothing hook and under the
 * Profiler, which splits engine time into execution, hook dispatch
 * and collector analysis.
 */

#include <algorithm>
#include <sstream>

#include "cluster/kmeans.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "harness.hh"
#include "metrics/profile_io.hh"
#include "stats/pca.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

using namespace gwc;

/** Largest scale at which every workload verifies (SLA fails at 3). */
constexpr uint32_t kScale = 2;

/**
 * Observes nothing: batch-capable, claims no depDist lanes and
 * shardable, so launches keep their CTA parallelism. The ladder rung
 * between bare execution and the Profiler.
 */
class NullHook : public simt::ProfilerHook
{
  public:
    std::unique_ptr<simt::ProfilerHook>
    makeShard() override
    {
        return std::make_unique<NullHook>();
    }
    bool batchCapable() const override { return true; }
    simt::LaneMask depDistLanes() const override { return 0; }
    void instrBatch(std::span<const simt::InstrEvent>) override {}
    void memBatch(std::span<const simt::MemEvent>) override {}
    void branchBatch(std::span<const simt::BranchEvent>) override {}
};

struct SuiteIter
{
    bool ok = true;
    double wallSec = 0;
    uint64_t warpInstrs = 0;
    std::vector<double> workloadSec;  ///< per workload (request)
    std::vector<std::string> workloadName;   ///< parallel to workloadSec
    double criticalSec = 0;           ///< slowest workload
};

SuiteIter
suiteIteration(const std::vector<std::string> &names, unsigned jobs,
               Golden &golden, Tracer &tracer)
{
    Span iter(tracer, "iteration");
    SuiteIter it;
    auto t0 = Clock::now();
    workloads::SuiteOptions so;
    so.scale = kScale;
    so.jobs = jobs;
    so.verify = true;
    std::vector<workloads::WorkloadRun> runs;
    {
        Span s(tracer, "suite.runSuite");
        runs = workloads::runSuite(names, so);
    }
    it.ok = workloads::suiteExitCode(runs) == 0;
    for (const auto &r : runs) {
        it.warpInstrs += r.totals.warpInstrs;
        const double sec =
            r.setupSec + r.simulateSec + r.profileSec + r.verifySec;
        it.workloadSec.push_back(sec);
        it.workloadName.push_back(r.desc.abbrev);
        it.criticalSec = std::max(it.criticalSec, sec);
    }

    // Canonical (label-sorted) profiles: the digest and the analysis
    // input do not depend on the seed's workload order.
    auto profiles = workloads::allProfiles(runs);
    std::stable_sort(profiles.begin(), profiles.end(),
                     [](const auto &a, const auto &b) {
                         return a.label() < b.label();
                     });
    std::ostringstream csv;
    {
        Span s(tracer, "metrics.writeProfilesCsv");
        metrics::writeProfilesCsv(csv, profiles);
    }
    it.ok = golden.check("profiles_s2", csv.str()) && it.ok;

    stats::PcaResult pca;
    {
        Span s(tracer, "stats.pca");
        pca = stats::pca(workloads::metricMatrix(profiles));
    }
    std::ostringstream clusters;
    {
        Span s(tracer, "cluster.kmeans");
        auto space = pca.truncatedScores(pca.numPcsFor(0.90));
        Rng rng(1);
        uint32_t k = cluster::selectKByBic(
            space, uint32_t(space.rows()) / 2, rng);
        auto km = cluster::kmeans(space, k, rng);
        clusters << "pcs " << space.cols() << " k " << k << "\n";
        for (int l : km.labels)
            clusters << l << ' ';
    }
    it.ok = golden.check("clusters_s2", clusters.str()) && it.ok;
    it.wallSec = since(t0);
    return it;
}

/** Counters of one ladder pass (times come from the spans). */
struct LadderCounts
{
    bool ok = true;
    uint64_t warpInstrs = 0;
    uint64_t events = 0;
};

/**
 * One ladder pass over @p names: each workload is set up and run three
 * times on a fresh engine, bare, under NullHook and under the
 * Profiler (plus the Profiler at one CTA job when @p jobs > 1, for
 * the CTA speed-up). Only the Profiler rung is finalized and verified.
 */
LadderCounts
ladderPass(const std::vector<std::string> &names, unsigned jobs,
           Tracer &tracer)
{
    Span pass(tracer, "ladder");
    LadderCounts c;
    enum Rung { Bare, Null, Profiled, ProfiledJ1 };
    static const char *const runSpan[] = {
        "simt.run_bare", "simt.run_nullhook", "simt.run_profiled",
        "simt.run_profiled_j1"};
    const int rungs = jobs > 1 ? 4 : 3;
    for (const auto &name : names) {
        for (int rung = 0; rung < rungs; ++rung) {
            auto wl = workloads::makeWorkload(name);
            simt::Engine engine;
            engine.setJobs(rung == ProfiledJ1 ? 1 : jobs);
            telemetry::Registry reg;
            engine.attachStats(reg);
            {
                Span s(tracer, rung == Profiled ? "workloads.setup"
                                                : "ladder.setup");
                wl->setup(engine, kScale);
            }
            NullHook null;
            metrics::Profiler profiler;
            if (rung == Null)
                engine.addHook(&null);
            else if (rung != Bare)
                engine.addHook(&profiler);
            {
                Span s(tracer, runSpan[rung]);
                wl->run(engine);
            }
            engine.clearHooks();
            if (rung == Bare)
                c.warpInstrs += reg.counterTotal("engine", "warp_instrs");
            if (rung == Null) {
                for (const char *ev : {"ev_kernel", "ev_cta", "ev_instr",
                                       "ev_mem", "ev_branch",
                                       "ev_barrier"})
                    c.events += reg.counterTotal("engine", ev);
            }
            if (rung == Profiled) {
                {
                    Span s(tracer, "metrics.finalize");
                    profiler.finalize(name);
                }
                Span s(tracer, "workloads.verify");
                c.ok = wl->verify(engine) && c.ok;
            }
        }
    }
    return c;
}

/** Pool counters summed over workers. */
struct PoolTotals
{
    uint64_t tasks = 0, callerTasks = 0, steals = 0, failedSteals = 0,
             idleNs = 0;
    unsigned workers = 0;

    static PoolTotals
    now()
    {
        PoolTotals t;
        auto s = ThreadPool::global().statsSnapshot();
        t.workers = unsigned(s.workers.size());
        t.callerTasks = s.callerTasks;
        for (const auto &w : s.workers) {
            t.tasks += w.tasks;
            t.steals += w.steals;
            t.failedSteals += w.failedSteals;
            t.idleNs += w.idleNs;
        }
        return t;
    }
};

} // anonymous namespace

void
runCold(const Options &opts, unsigned jobs,
        Clock::time_point processStart, Tracer &tracer, Outcome &out)
{
    Golden golden(opts.golden);
    uint64_t iter = 0;
    auto iterate = [&] {
        return suiteIteration(suiteOrder(opts.seed, iter++), jobs, golden,
                              tracer);
    };
    std::vector<double> setups, setupProbes;
    for (int r = 0; r < kSetups; ++r) {
        auto t0 = r == 0 ? processStart : Clock::now();
        ThreadPool::global();   // spawns the workers on first use
        out.tally(iterate().ok);
        setups.push_back(since(t0));
        for (int i = 0; i < kSetupProbes; ++i)
            setupProbes.push_back(speedProbe());
    }

    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opts.seconds);
    if (!opts.trace) {
        std::vector<Slice> slices;
        do {
            SuiteIter it = iterate();
            out.tally(it.ok);
            slices.push_back({it.wallSec, it.wallSec, it.warpInstrs,
                              std::move(it.workloadSec),
                              std::move(it.workloadName)});
            slices.back().probeSec = speedProbe();
        } while (Clock::now() < deadline);
        addEndToEnd(out, slices, setups, setupProbes);
        return;
    }

    // Traced run: alternate an untraced iteration, a traced one and a
    // ladder pass until the window closes.
    std::vector<double> plain, traced, idle, steals, failedSteals,
        callerFrac, critical;
    LadderCounts counts;
    do {
        tracer.setEnabled(false);
        SuiteIter p = iterate();
        out.tally(p.ok);
        plain.push_back(p.wallSec);

        tracer.setEnabled(true);
        PoolTotals before = PoolTotals::now();
        SuiteIter t = iterate();
        PoolTotals after = PoolTotals::now();
        out.tally(t.ok);
        traced.push_back(t.wallSec);
        critical.push_back(t.criticalSec);
        const double workerNs =
            double(after.workers) * t.wallSec * 1e9;
        idle.push_back(workerNs > 0
                           ? double(after.idleNs - before.idleNs) /
                                 workerNs
                           : 0);
        steals.push_back(double(after.steals - before.steals));
        failedSteals.push_back(
            double(after.failedSteals - before.failedSteals));
        const double callers = double(after.callerTasks -
                                      before.callerTasks);
        const double all = callers + double(after.tasks - before.tasks);
        callerFrac.push_back(all > 0 ? callers / all : 0);

        counts = ladderPass(suiteOrder(opts.seed, iter++), jobs, tracer);
        out.tally(counts.ok);
    } while (Clock::now() < deadline);
    tracer.setEnabled(false);

    auto ladder = [&](const char *span) {
        return median(tracer.perRoot("ladder", span));
    };
    const double bare = ladder("simt.run_bare");
    const double null = ladder("simt.run_nullhook");
    const double prof = ladder("simt.run_profiled");
    out.add("workloads.setup_s", ladder("workloads.setup"), "s");
    out.add("workloads.verify_s", ladder("workloads.verify"), "s");
    out.add("simt.exec_s", bare, "s");
    out.add("hooks.dispatch_s", null - bare, "s");
    out.add("metrics.analysis_s", prof - null, "s");
    out.add("metrics.finalize_s", ladder("metrics.finalize"), "s");
    out.add("simt.warp_instrs", double(counts.warpInstrs), "count");
    out.add("hooks.events", double(counts.events), "count");
    out.add("simt.ns_per_warp_instr",
            counts.warpInstrs ? bare * 1e9 / double(counts.warpInstrs)
                              : 0,
            "ns");
    out.add("stats.pca_s",
            median(tracer.perRoot("iteration", "stats.pca")), "s");
    out.add("cluster.kmeans_s",
            median(tracer.perRoot("iteration", "cluster.kmeans")), "s");
    out.add("threadpool.idle_frac", median(idle), "ratio");
    out.add("threadpool.steals", median(steals), "count");
    out.add("threadpool.failed_steals", median(failedSteals), "count");
    out.add("threadpool.caller_task_frac", median(callerFrac), "ratio");
    out.add("suite.critical_path_s", median(critical), "s");
    if (jobs > 1)
        out.add("simt.cta_speedup",
                ladder("simt.run_profiled_j1") / prof, "x");
    out.add("trace.overhead_s", median(traced) - median(plain), "s");
}

} // namespace perfbench
