/**
 * @file
 * gwc_perfbench — the repository benchmark harness.
 *
 *   gwc_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--golden FILE] [--spans-out FILE] [--scratch DIR]
 *
 * Workloads: cold_serial, cold_parallel, design_space, served_mix.
 * Prints progress on stderr and, as the last stdout line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "harness.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "gwc_perfbench: " << why
              << "\nusage: gwc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--golden FILE] "
                 "[--spans-out FILE] [--scratch DIR]\n";
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const auto processStart = Clock::now();

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = val;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace") {
            opts.trace = val == "1";
            if (val != "0" && val != "1")
                return usage("--trace takes 0 or 1");
        } else if (arg == "--golden") {
            opts.golden = val;
        } else if (arg == "--spans-out") {
            opts.spansOut = val;
        } else if (arg == "--scratch") {
            opts.scratch = val;
        } else {
            return usage("unknown option " + arg);
        }
        if (end && (*end != '\0' || val.empty()))
            return usage("bad number for " + arg + ": " + val);
    }
    if (opts.seconds < 0)
        return usage("--seconds must be >= 0");

    gwc::setLogLevel(gwc::LogLevel::Warn);
    Tracer tracer;
    Outcome out;
    try {
        if (opts.workload == "cold_serial")
            runCold(opts, 1, processStart, tracer, out);
        else if (opts.workload == "cold_parallel")
            runCold(opts, 4, processStart, tracer, out);
        else if (opts.workload == "design_space")
            runDesignSpace(opts, processStart, tracer, out);
        else if (opts.workload == "served_mix")
            runServedMix(opts, processStart, tracer, out);
        else
            return usage("unknown workload '" + opts.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "gwc_perfbench: " << opts.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }

    if (opts.trace) {
        completeLayers(out);
        if (!opts.spansOut.empty())
            tracer.write(opts.spansOut);
    } else {
        out.add("peak_rss_mb", peakRssMb(), "MiB");
    }
    std::cout << resultLine(out) << std::endl;
    return 0;
}
