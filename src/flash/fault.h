/**
 * @file
 * Deterministic fault injection for the flash device.
 *
 * Two fault families, both driven from one seeded spec so a run's
 * fault timeline is a pure function of (spec, event order):
 *
 *  - Soft read failures: every array read draws against an
 *    uncorrectable-page probability derived from the RBER/retention
 *    model in src/ecc/retention.h (older, more worn data fails more
 *    often). A failed sense climbs a NAND-style read-retry ladder —
 *    re-reads at escalating sense latencies — until a rung sticks;
 *    the ladder's last rung always decodes (it stands in for the
 *    strongest sense level plus soft-decision decode).
 *
 *  - Channel degradation: a fault schedule of slowdown(factor, t0,
 *    t1) windows and permanent offline(t0) events. An offline channel
 *    strands its resident weight pages; WeightPlacement remaps them
 *    across the survivors and the rebuild traffic is charged over the
 *    surviving buses.
 *
 * On top of those, the reliability co-design knobs (all default-off):
 * per-plane wear tracking derives each read's UCP from the *target
 * plane's* tracked P/E and age instead of the uniform spec scalars;
 * an ECC correction strength replaces the hand-set ucp_rate with the
 * binomial codeword tail of the read's raw BER (stronger ECC senses
 * slower but collapses the retry tail far faster than the geometric
 * ladder decay); and a background refresh rate scrubs the
 * oldest-resident pages through the normal channel queues.
 *
 * The model owns a single Rng consumed in event order. Each serve()
 * run is single threaded, so identical specs give identical fault
 * timelines regardless of how many sweep runs execute in parallel.
 */

#ifndef CAMLLM_FLASH_FAULT_H
#define CAMLLM_FLASH_FAULT_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"
#include "flash/params.h"
#include "flash/placement.h"

namespace camllm::flash {

/** Read-retry ladder shape (applied per failed array read): the
 *  device's one read-retry table. */
struct RetryLadder
{
    /** Re-reads allowed after the initial failed sense; the last rung
     *  always succeeds. */
    static constexpr std::uint32_t kMaxRetries = 4;

    /** tR multiplier per rung: attempt k senses for
     *  t_read * kSenseEscalation^k. */
    static constexpr double kSenseEscalation = 1.5;

    /** Each rung's shifted read level is likelier to decode: rung k
     *  fails with ucp * kRetryFailDecay^k. With an ECC strength armed
     *  the decay applies to the raw BER instead and each rung's
     *  failure probability is re-derived from the codeword tail,
     *  which falls much faster than geometrically for strong codes. */
    static constexpr double kRetryFailDecay = 0.25;
};

/**
 * One scheduled channel-degradation event. t0/t1 are device ticks;
 * under core::Scheduler that is the sampled-layer sim clock, which
 * runs about n_layers / sample_layers times faster than the
 * depth-extrapolated time of the reported TTFT/TBT (ROADMAP item 1
 * moves every time input onto one clock).
 */
struct ChannelFault
{
    std::uint32_t channel = 0;
    double slowdown = 1.0; ///< bus-rate divisor during [t0, t1)
    Tick t0 = 0;
    Tick t1 = 0;           ///< slowdown end (ignored when offline)
    bool offline = false;  ///< channel dies permanently at t0
};

/** Everything needed to reproduce a fault timeline. */
struct FaultSpec
{
    /** Uncorrectable-page probability per fresh array read, before
     *  retention/wear scaling. 0 disables soft read failures.
     *  Ignored when ecc_correctable_bits > 0 (the UCP then derives
     *  from the codeword tail instead of this hand-set rate). */
    double ucp_rate = 0.0;

    /** Modeled data age / wear: scales ucp_rate by
     *  retentionBer(hours, pe) / base_ber, so the same knob that
     *  drives bench_fig03b drives runtime failures. 0/0 = fresh.
     *  With wear_tracking these also seed the per-plane state. */
    double retention_hours = 0.0;
    double pe_cycles = 0.0;

    std::uint64_t seed = 1;
    std::vector<ChannelFault> channel_faults;

    /** Resident weight bytes, used to size the remap performed when a
     *  channel goes offline and to seed the wear/refresh placement
     *  map. The scheduler fills this from the model config when it
     *  arms faults; standalone users set it directly. */
    std::uint64_t model_weight_bytes = 0;

    /** Bus-grant granularity of remap rebuild traffic. */
    static constexpr std::uint32_t kRemapChunkBytes = 1u << 20;

    // --- reliability co-design (defaults arm nothing new) --------------
    /**
     * Derive each read's UCP from the *target plane's* tracked wear
     * and age instead of the uniform spec scalars, so planes that
     * absorb programs (seeding, remap rebuilds, refresh re-writes)
     * fail more and the per-channel fault schedule emerges from
     * traffic. Requires model_weight_bytes (the scheduler fills it).
     */
    bool wear_tracking = false;

    /** Placement policy for programs; see WearPolicy. */
    WearPolicy wear_policy = WearPolicy::Bump;

    /** Initial per-plane P/E gradient: base wear spans
     *  pe_cycles * [1-skew, 1+skew] across the flat plane order
     *  (the uneven starting profile wear leveling works against). */
    double wear_skew = 0.0;

    /**
     * On-die ECC correction strength in correctable bits per
     * codeword. 0 keeps the legacy ucp_rate path. > 0 derives every
     * ladder rung's failure probability from ecc::pageUcp at the
     * read's raw BER; stronger ECC costs sense latency
     * (kEccSensePerBit) and decoder area (core::eccDecoderAreaUm2)
     * but flattens the retry tail.
     */
    std::uint32_t ecc_correctable_bits = 0;

    /** Payload bytes one codeword of the on-die ECC protects. */
    static constexpr std::uint32_t kEccCodewordBytes = 1024;

    /** Fractional tR adder per correctable bit: every sense (retry
     *  rungs included) takes t_read * (1 + bits * this) — the finer
     *  soft-sense precision a stronger decoder needs. */
    static constexpr double kEccSensePerBit = 0.004;

    /**
     * Background retention-scrub rate in pages per second (0 = off),
     * per second of device time — under core::Scheduler the
     * sampled-layer sim clock, like ChannelFault::t0/t1.
     * Each scrubbed page is read through the normal channel queues
     * under WorkClass::Refresh and re-written over the channel bus,
     * so refresh competes with serving reads for exactly the
     * bandwidth it consumes.
     */
    double refresh_pages_per_s = 0.0;

    /** Convenience builders for the fault schedule; times are device
     *  ticks, as in ChannelFault. */
    void addSlowdown(std::uint32_t channel, double factor, Tick t0, Tick t1);
    void addOffline(std::uint32_t channel, Tick t0);

    /**
     * ucp_rate after retention/wear scaling. Saturation ownership:
     * ecc::retentionBer owns *raw-bit* saturation and clamps the BER
     * to [0, 0.5); this layer owns page-level saturation and clamps
     * every derived *uncorrectable-page* probability to [0, 0.9], so
     * the retry ladder always keeps decodable rungs to climb toward.
     */
    double effectiveUcpRate() const;

    /** Does this spec inject anything at all? */
    bool
    any() const
    {
        return effectiveUcpRate() > 0.0 || !channel_faults.empty() ||
               wear_tracking || ecc_correctable_bits > 0 ||
               refresh_pages_per_s > 0.0;
    }
};

/** Seeded runtime state shared by every die of one FlashSystem. */
class FaultModel
{
  public:
    /** @p page_bytes sizes the ECC codeword tail; @p t_read is the
     *  base array sense time every senseTime() attempt scales. */
    explicit FaultModel(const FaultSpec &spec,
                        std::uint32_t page_bytes = FlashGeometry{}.page_bytes,
                        Tick t_read = FlashTiming{}.t_read);

    const FaultSpec &spec() const { return spec_; }

    /**
     * Retry rungs a fresh array read will climb before it decodes
     * (0 = clean first sense), at the uniform spec-level wear.
     * Consumes the shared random stream in event order, which is what
     * makes the timeline deterministic.
     */
    std::uint32_t drawRetries();

    /**
     * drawRetries with the rung probabilities derived from the target
     * plane's tracked wear, age and refreshed fraction. Falls back to
     * the uniform draw when no wear source is armed, so dies can call
     * it unconditionally.
     */
    std::uint32_t drawRetriesForPlane(std::uint32_t channel,
                                      std::uint32_t die_in_channel,
                                      std::uint32_t plane);

    /** Attach the placement map whose per-plane wear drives
     *  drawRetriesForPlane; must outlive the model. */
    void setWearSource(const WeightPlacement *placement);

    /** UCP a read of data at @p age_hours / @p pe_cycles sees under
     *  this spec (ECC codeword tail when armed, scaled ucp_rate
     *  otherwise), before ladder decay. Clamped to [0, 0.9]. */
    double ucpAt(double age_hours, double pe_cycles) const;

    /** Sense latency of attempt @p attempt (at most kMaxRetries).
     *  Attempt 0 at default ECC strength is the base tR, exactly; an
     *  armed ECC strength multiplies every attempt by the soft-sense
     *  factor. */
    Tick
    senseTime(std::uint32_t attempt) const
    {
        CAMLLM_ASSERT(attempt < sense_.size(), "sense attempt %u past %zu",
                      attempt, sense_.size());
        return sense_[attempt];
    }

    /** tR multiplier the armed ECC strength imposes on every sense. */
    double eccSenseScale() const;

    std::uint64_t drawsTaken() const { return draws_; }

  private:
    /** Marks a rung memo slot not yet evaluated (odds are never < 0). */
    static constexpr double kUnset = -1.0;

    /** Failure odds of rungs 1..kMaxRetries of one wear state: slot
     *  r-1 holds rung r, kUnset until a climb first reaches it. */
    using Rungs = std::array<double, RetryLadder::kMaxRetries>;

    /**
     * Climb the ladder from first-sense probability @p ucp0, filling
     * @p rungs as rungs are first reached; @p ber0 seeds a rung's
     * codeword-tail evaluation when ECC is armed.
     */
    std::uint32_t climbLadder(double ucp0, double ber0, Rungs &rungs);

    /** Failure probability of rung @p r >= 1, from the same wear
     *  state's first-sense odds and already-filled lower rungs. */
    double rungOdds(std::uint32_t r, double ucp0, double ber0,
                    const Rungs &rungs) const;

    /** First-sense odds and rung memo of one plane, valid while the
     *  plane's wear state still equals the key they were derived
     *  from. */
    struct PlaneOdds
    {
        bool known = false;
        double pe = 0.0;
        double age = 0.0;
        double fresh = 0.0;
        double ucp0 = 0.0;
        double ber0 = 0.0;
        Rungs rungs{};
    };

    FaultSpec spec_;
    std::uint32_t page_bytes_;
    double ucp_;          ///< uniform first-sense UCP
    double uniform_ber_;  ///< raw BER at the spec scalars
    Rng rng_;
    std::uint64_t draws_ = 0;
    const WeightPlacement *wear_ = nullptr;
    /** Per-plane memo for drawRetriesForPlane. Keyed on the exact
     *  wear-state doubles, so a program or refresh that changes them
     *  recomputes the odds (and clears the rungs) without any
     *  invalidation hook. */
    std::vector<PlaneOdds> odds_;
    /** Rung memo of the uniform draw. */
    Rungs uniform_rungs_;
    /** senseTime() of every attempt 0..kMaxRetries. */
    std::array<Tick, RetryLadder::kMaxRetries + 1> sense_;
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_FAULT_H
