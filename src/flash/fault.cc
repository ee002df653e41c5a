#include "fault.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "ecc/retention.h"

namespace camllm::flash {

void
FaultSpec::addSlowdown(std::uint32_t channel, double factor, Tick t0,
                       Tick t1)
{
    CAMLLM_ASSERT(factor >= 1.0, "slowdown factor %.2f < 1", factor);
    CAMLLM_ASSERT(t1 > t0, "empty slowdown window");
    ChannelFault f;
    f.channel = channel;
    f.slowdown = factor;
    f.t0 = t0;
    f.t1 = t1;
    channel_faults.push_back(f);
}

void
FaultSpec::addOffline(std::uint32_t channel, Tick t0)
{
    ChannelFault f;
    f.channel = channel;
    f.t0 = t0;
    f.offline = true;
    channel_faults.push_back(f);
}

namespace {

/** A hand-set first-sense UCP scaled by the retention model's raw BER
 *  at (@p age_hours, @p pe_cycles) over its fresh BER, clamped to the
 *  page-level ceiling. At age 0 and no wear the ratio is exactly 1. */
double
scaledUcp(double ucp_rate, double age_hours, double pe_cycles)
{
    if (ucp_rate <= 0.0)
        return 0.0;
    const ecc::RetentionParams rp;
    const double ber = ecc::retentionBer(age_hours, pe_cycles, rp);
    return std::min(ucp_rate * (ber / rp.base_ber), 0.9);
}

} // namespace

double
FaultSpec::effectiveUcpRate() const
{
    return scaledUcp(ucp_rate, retention_hours, pe_cycles);
}

FaultModel::FaultModel(const FaultSpec &spec, std::uint32_t page_bytes,
                       Tick t_read)
    : spec_(spec), page_bytes_(page_bytes), rng_(spec.seed)
{
    uniform_rungs_.fill(kUnset);
    CAMLLM_ASSERT(page_bytes_ > 0);
    uniform_ber_ =
        ecc::retentionBer(spec_.retention_hours, spec_.pe_cycles);
    ucp_ = ucpAt(spec_.retention_hours, spec_.pe_cycles);

    const double scale = eccSenseScale();
    sense_[0] = scale == 1.0 ? t_read : Tick(double(t_read) * scale);
    for (std::uint32_t k = 1; k <= RetryLadder::kMaxRetries; ++k) {
        const double esc =
            std::pow(RetryLadder::kSenseEscalation, double(k));
        sense_[k] = Tick(double(t_read) * esc * scale);
    }
}

double
FaultModel::ucpAt(double age_hours, double pe_cycles) const
{
    if (spec_.ecc_correctable_bits == 0)
        return scaledUcp(spec_.ucp_rate, age_hours, pe_cycles);
    return std::min(ecc::pageUcp(ecc::retentionBer(age_hours, pe_cycles),
                                 spec_.ecc_correctable_bits,
                                 FaultSpec::kEccCodewordBytes, page_bytes_),
                    0.9);
}

std::uint32_t
FaultModel::climbLadder(double ucp0, double ber0, Rungs &rungs)
{
    if (ucp0 <= 0.0)
        return 0;
    std::uint32_t r = 0;
    double p = ucp0;
    while (r < RetryLadder::kMaxRetries) {
        ++draws_;
        if (!rng_.chance(p))
            break;
        double &odds = rungs[r++];
        if (odds == kUnset)
            odds = rungOdds(r, ucp0, ber0, rungs);
        p = odds;
    }
    return r;
}

double
FaultModel::rungOdds(std::uint32_t r, double ucp0, double ber0,
                     const Rungs &rungs) const
{
    if (spec_.ecc_correctable_bits == 0)
        return (r == 1 ? ucp0 : rungs[r - 2]) *
               RetryLadder::kRetryFailDecay;
    // Shifted read levels lower the raw BER; re-derive the rung's
    // failure probability from the codeword tail, which collapses
    // super-geometrically for strong codes.
    double ber = ber0;
    for (std::uint32_t k = 0; k < r; ++k)
        ber *= RetryLadder::kRetryFailDecay;
    return std::min(ecc::pageUcp(ber, spec_.ecc_correctable_bits,
                                 FaultSpec::kEccCodewordBytes, page_bytes_),
                    0.9);
}

std::uint32_t
FaultModel::drawRetries()
{
    return climbLadder(ucp_, uniform_ber_, uniform_rungs_);
}

void
FaultModel::setWearSource(const WeightPlacement *placement)
{
    wear_ = placement;
    const std::size_t planes = placement ? placement->planeCount() : 0;
    odds_.assign(planes, PlaneOdds{});
}

std::uint32_t
FaultModel::drawRetriesForPlane(std::uint32_t channel,
                                std::uint32_t die_in_channel,
                                std::uint32_t plane)
{
    if (!wear_)
        return drawRetries();
    const std::size_t idx =
        wear_->planeIndex(channel, die_in_channel, plane);
    const double pe = wear_->planeWear(idx);
    const double age = wear_->planeAge(idx);
    const double frac = wear_->planeFreshFraction(idx);
    PlaneOdds &o = odds_[idx];
    if (!o.known || o.pe != pe || o.age != age || o.fresh != frac) {
        double ucp0 = ucpAt(age, pe);
        double ber0 = ecc::retentionBer(age, pe);
        if (frac > 0.0) {
            // A read hits a scrubbed (fresh) page with probability
            // frac; mix the aged and fresh failure rates accordingly.
            ucp0 = (1.0 - frac) * ucp0 + frac * ucpAt(0.0, pe);
            ber0 = (1.0 - frac) * ber0 +
                   frac * ecc::retentionBer(0.0, pe);
        }
        o = PlaneOdds{true, pe, age, frac, ucp0, ber0, {}};
        o.rungs.fill(kUnset);
    }
    return climbLadder(o.ucp0, o.ber0, o.rungs);
}

double
FaultModel::eccSenseScale() const
{
    if (spec_.ecc_correctable_bits == 0)
        return 1.0;
    return 1.0 + FaultSpec::kEccSensePerBit *
                     double(spec_.ecc_correctable_bits);
}

} // namespace camllm::flash
