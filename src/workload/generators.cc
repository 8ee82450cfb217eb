#include "workload/generators.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace proteus {

namespace {

constexpr double kPi = 3.14159265358979323846;

/**
 * Emit ~rate Poisson arrivals inside the one-second bucket starting
 * at @p bucket_start, assigning families by Zipf.
 */
void
emitPoissonSecond(Trace* trace, Time bucket_start, double rate,
                  const ZipfDistribution& zipf, Rng& rng)
{
    if (rate <= 0.0)
        return;
    // Poisson process: exponential inter-arrivals at the given rate,
    // truncated to the second. This matches the paper's treatment of
    // the per-second aggregated Twitter counts.
    double t = rng.exponential(rate);
    while (t < 1.0) {
        trace->append(bucket_start + seconds(t),
                      static_cast<FamilyId>(zipf.sample(rng)));
        t += rng.exponential(rate);
    }
}

}  // namespace

const char*
toString(ArrivalProcess p)
{
    switch (p) {
      case ArrivalProcess::Uniform: return "uniform";
      case ArrivalProcess::Poisson: return "poisson";
      case ArrivalProcess::Gamma: return "gamma";
    }
    return "unknown";
}

Trace
diurnalTrace(std::size_t num_families, const DiurnalTraceConfig& config)
{
    PROTEUS_ASSERT(num_families > 0, "need at least one family");
    Rng rng(config.seed);
    ZipfDistribution zipf(num_families, config.zipf_alpha);
    Trace trace;
    const double total_s = toSeconds(config.duration);
    for (double sec = 0.0; sec < total_s; sec += 1.0) {
        // Diurnal sinusoid with trough at t=0.
        double phase = 2.0 * kPi * config.cycles * sec / total_s;
        double rate = config.base_qps +
                      config.diurnal_amplitude_qps *
                          0.5 * (1.0 - std::cos(phase));
        rate *= std::max(0.0, 1.0 + rng.normal(0.0, config.noise_frac));
        if (rng.uniform() < config.spike_prob)
            rate *= config.spike_factor;
        emitPoissonSecond(&trace, seconds(sec), rate, zipf, rng);
    }
    trace.sort();
    return trace;
}

Trace
burstTrace(std::size_t num_families, const BurstTraceConfig& config)
{
    PROTEUS_ASSERT(num_families > 0, "need at least one family");
    PROTEUS_ASSERT(config.phase > 0, "phase must be positive");
    Rng rng(config.seed);
    ZipfDistribution zipf(num_families, config.zipf_alpha);
    Trace trace;
    const double total_s = toSeconds(config.duration);
    const double phase_s = toSeconds(config.phase);
    for (double sec = 0.0; sec < total_s; sec += 1.0) {
        bool high = static_cast<std::int64_t>(sec / phase_s) % 2 == 1;
        double rate = high ? config.high_qps : config.low_qps;
        emitPoissonSecond(&trace, seconds(sec), rate, zipf, rng);
    }
    trace.sort();
    return trace;
}

namespace {

Trace
steadyTraceImpl(double qps, Duration duration, ArrivalProcess process,
                Rng& rng, const ZipfDistribution* zipf,
                FamilyId fixed_family)
{
    PROTEUS_ASSERT(qps > 0.0, "steady trace needs positive QPS");
    Trace trace;
    const double mean_gap = 1.0 / qps;  // seconds
    // Gamma with shape k and scale mean_gap/k keeps the mean rate at
    // qps while producing heavy micro-bursts for small k.
    const double gamma_shape = 0.05;  // paper §6.4
    double t = 0.0;
    const double total_s = toSeconds(duration);
    while (true) {
        double gap;
        switch (process) {
          case ArrivalProcess::Uniform:
            gap = mean_gap;
            break;
          case ArrivalProcess::Poisson:
            gap = rng.exponential(qps);
            break;
          case ArrivalProcess::Gamma:
            gap = rng.gamma(gamma_shape, mean_gap / gamma_shape);
            break;
          default:
            PROTEUS_PANIC("unhandled arrival process");
        }
        t += gap;
        if (t >= total_s)
            break;
        FamilyId fam = zipf ? static_cast<FamilyId>(zipf->sample(rng))
                            : fixed_family;
        trace.append(seconds(t), fam);
    }
    trace.sort();
    return trace;
}

}  // namespace

Trace
steadyTrace(std::size_t num_families, double qps, Duration duration,
            ArrivalProcess process, std::uint64_t seed)
{
    PROTEUS_ASSERT(num_families > 0, "need at least one family");
    Rng rng(seed);
    ZipfDistribution zipf(num_families, 1.001);
    return steadyTraceImpl(qps, duration, process, rng, &zipf, 0);
}

Trace
steadySingleFamilyTrace(FamilyId family, double qps, Duration duration,
                        ArrivalProcess process, std::uint64_t seed)
{
    Rng rng(seed);
    return steadyTraceImpl(qps, duration, process, rng, nullptr, family);
}

Trace
pipelineTrace(const std::vector<FamilyId>& entry_families,
              const PipelineTraceConfig& config)
{
    PROTEUS_ASSERT(!entry_families.empty(),
                   "pipeline trace needs at least one entry family");
    auto stream = [&](std::size_t i) {
        Rng rng(config.seed + i);
        return steadyTraceImpl(config.qps, config.duration,
                               config.process, rng, nullptr,
                               entry_families[i]);
    };
    // Folding the streams in index order gives the order appending
    // them and stable-sorting on time would.
    Trace trace = stream(0);
    for (std::size_t i = 1; i < entry_families.size(); ++i)
        trace = Trace::merge(trace, stream(i));
    return trace;
}

}  // namespace proteus
