/**
 * @file
 * The host speed probe: a fixed, switch-dispatched register-machine
 * loop, the same kind of code as the simulator's instruction dispatch.
 * It is part of the harness, not of the program, so no change to the
 * program moves it; only the host's speed does.
 */

#include <array>
#include <cstdint>

#include "harness.hh"

namespace perfbench
{

namespace
{

/** The probe's fixed program: 4096 opcodes of a six-op register
 * machine, drawn once from a fixed xorshift sequence. */
std::array<uint8_t, 4096>
probeProgram()
{
    std::array<uint8_t, 4096> code{};
    uint64_t x = 88172645463325252ull;
    for (auto &op : code) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        op = uint8_t(x % 6);
    }
    return code;
}

volatile uint64_t probeSink;

} // anonymous namespace

double
speedProbe()
{
    static const std::array<uint8_t, 4096> code = probeProgram();
    const auto t0 = Clock::now();
    uint64_t r[4] = {1, 2, 3, 4};
    for (int rep = 0; rep < 600; ++rep) {
        for (uint8_t op : code) {
            switch (op) {
            case 0: r[0] += r[1]; break;
            case 1: r[1] ^= r[2] << 3; break;
            case 2: r[2] = r[2] * 2654435761u + r[3]; break;
            case 3: r[3] -= r[0] >> 5; break;
            case 4:
                if (r[0] & 1)
                    r[1] += 7;
                else
                    r[2] ^= 9;
                break;
            default: r[0] = (r[0] << 1) | (r[3] & 1); break;
            }
        }
    }
    const double sec = since(t0);
    probeSink = r[0] + r[1] + r[2] + r[3];
    return sec;
}

} // namespace perfbench
