/**
 * @file
 * design_space: gwc_simulate's loop at scale 1 and one job. Every
 * workload runs under timing::TraceCapture (no profiler attached),
 * then each kernel's trace is simulated on every design point of
 * timing::designSpace(). Most host time is the timing model, so a
 * profiler change shows nothing here and a timing-model change shows
 * nowhere else.
 */

#include <algorithm>
#include <map>
#include <sstream>

#include "common/table.hh"
#include "harness.hh"
#include "timing/gpu.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace gwc;

constexpr uint32_t kScale = 1;

struct DesignIter
{
    bool ok = true;
    double wallSec = 0;
    uint64_t warpInstrs = 0;
    uint64_t traceOps = 0;
    uint64_t simCycles = 0;   ///< summed over kernels and design points
    uint64_t l1Misses = 0;
    std::vector<double> workloadSec;
    std::vector<std::string> workloadName;   ///< parallel to workloadSec
};

DesignIter
designIteration(const std::vector<std::string> &names,
                const std::vector<timing::GpuConfig> &cfgs,
                Golden &golden, Tracer &tracer)
{
    Span iter(tracer, "iteration");
    DesignIter it;
    std::vector<std::string> rows;
    auto t0 = Clock::now();
    for (const auto &name : names) {
        auto tw = Clock::now();
        auto wl = workloads::makeWorkload(name);
        simt::Engine engine;
        timing::TraceCapture cap;
        {
            Span s(tracer, "workloads.setup");
            wl->setup(engine, kScale);
        }
        engine.addHook(&cap);
        {
            Span s(tracer, "timing.capture");
            wl->run(engine);
        }
        engine.clearHooks();
        it.ok = !cap.truncated() && it.ok;

        std::map<std::string, std::vector<timing::KernelTrace>> by;
        std::vector<std::string> order;
        for (auto &tr : cap.traces()) {
            it.traceOps += tr.totalOps;
            if (!by.count(tr.name))
                order.push_back(tr.name);
            by[tr.name].push_back(std::move(tr));
        }
        for (const auto &kname : order) {
            std::vector<timing::SimResult> res;
            for (const auto &cfg : cfgs) {
                Span s(tracer, "timing.simulateAll." + cfg.name);
                res.push_back(timing::simulateAll(by[kname], cfg));
            }
            // gwc_simulate's table row: instrs, baseline IPC, then the
            // speed-up of every other design point.
            std::ostringstream row;
            row << name << '.' << kname << '\t'
                << Table::integer(int64_t(res[0].instrs)) << '\t'
                << Table::num(res[0].ipc, 2);
            for (size_t c = 1; c < cfgs.size(); ++c)
                row << '\t'
                    << Table::num(double(res[0].cycles) /
                                      double(res[c].cycles),
                                  3);
            rows.push_back(row.str());
            it.warpInstrs += res[0].instrs;
            for (const auto &r : res) {
                it.simCycles += r.cycles;
                it.l1Misses += r.l1Misses;
            }
        }
        it.workloadSec.push_back(since(tw));
        it.workloadName.push_back(name);
    }
    it.wallSec = since(t0);

    std::sort(rows.begin(), rows.end());
    std::ostringstream table;
    for (const auto &r : rows)
        table << r << "\n";
    table << "sim_cycles " << it.simCycles << "\n";
    it.ok = golden.check("design_s1", table.str()) && it.ok;
    return it;
}

} // anonymous namespace

void
runDesignSpace(const Options &opts, Clock::time_point processStart,
               Tracer &tracer, Outcome &out)
{
    Golden golden(opts.golden);
    const auto cfgs = timing::designSpace();
    uint64_t iter = 0;
    auto iterate = [&] {
        return designIteration(suiteOrder(opts.seed, iter++), cfgs, golden,
                               tracer);
    };
    std::vector<double> setups, setupProbes;
    for (int r = 0; r < kSetups; ++r) {
        auto t0 = r == 0 ? processStart : Clock::now();
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
            DesignIter it = iterate();
            out.tally(it.ok);
            slices.push_back({it.wallSec, it.wallSec, it.warpInstrs,
                              std::move(it.workloadSec),
                              std::move(it.workloadName)});
            slices.back().probeSec = speedProbe();
        } while (Clock::now() < deadline);
        addEndToEnd(out, slices, setups, setupProbes);
        return;
    }

    std::vector<double> plain, traced;
    DesignIter last;
    do {
        tracer.setEnabled(false);
        DesignIter p = iterate();
        out.tally(p.ok);
        plain.push_back(p.wallSec);
        tracer.setEnabled(true);
        last = iterate();
        out.tally(last.ok);
        traced.push_back(last.wallSec);
    } while (Clock::now() < deadline);
    tracer.setEnabled(false);

    auto perIter = [&](const std::string &span) {
        return median(tracer.perRoot("iteration", span));
    };
    out.add("workloads.setup_s", perIter("workloads.setup"), "s");
    out.add("timing.capture_s", perIter("timing.capture"), "s");
    double model = 0;
    for (const auto &cfg : cfgs) {
        const double s = perIter("timing.simulateAll." + cfg.name);
        out.add("timing.model_s." + cfg.name, s, "s");
        model += s;
    }
    out.add("timing.model_s", model, "s");
    out.add("timing.trace_ops", double(last.traceOps), "count");
    out.add("timing.sim_cycles", double(last.simCycles), "count");
    out.add("timing.l1_misses", double(last.l1Misses), "count");
    out.add("timing.ns_per_op",
            last.traceOps ? model * 1e9 /
                                (double(last.traceOps) * cfgs.size())
                          : 0,
            "ns");
    out.add("trace.overhead_s", median(traced) - median(plain), "s");
}

} // namespace perfbench
