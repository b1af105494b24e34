/**
 * @file
 * The Prefetch and Decode Unit: a three-stage pipeline that fetches
 * parcels from main memory into an 8-parcel instruction queue, decodes
 * (and folds) them in the PDR stage, and writes decoded entries into the
 * Decoded Instruction Cache from the PIR stage.
 *
 * The PDU runs decoupled from the Execution Unit: it streams along the
 * predicted instruction path (following unconditional and
 * predicted-taken folded branches), pauses when it wraps into already
 * decoded code, and is redirected by EU-side DIC misses.
 *
 * The PDR stage reads decode results from the whole-program predecode
 * tables (predecode.hh): decode work happens once per address, and the
 * stage gates each decode on queue occupancy exactly as re-decoding the
 * queue would. The queue is modelled as an occupancy count. A fetch
 * lands only when it extends the queue, so the queue always holds the
 * text from the decode point onward, and the one parcel the gate reads
 * (the first) comes straight from the text segment.
 */

#ifndef CRISP_SIM_PDU_HH
#define CRISP_SIM_PDU_HH

#include <cstdint>

#include "config.hh"
#include "decoded.hh"
#include "dic.hh"
#include "fault_hooks.hh"
#include "isa/program.hh"
#include "predecode.hh"
#include "stats.hh"

namespace crisp
{

class Pdu
{
  public:
    /** Largest instruction queue the model accepts, in parcels. */
    static constexpr int kMaxQueueParcels = 64;

    /**
     * @p predecode is the owning CPU's predecode cache: the PDR stage
     * and the retire-time checker memoize into the same tables.
     */
    Pdu(const Program& prog, const SimConfig& cfg, DecodedCache& dic,
        SimStats& stats, PredecodeCache& predecode);

    /**
     * Advance one cycle. Order of operations models the three stages:
     * the PIR latch (decoded last cycle) fills the DIC first, then the
     * PDR stage decodes from the queue, then the prefetcher moves
     * parcels from memory toward the queue.
     */
    void tick(std::uint64_t now);

    /**
     * EU-side demand: the EU missed in the DIC at @p pc. Redirects the
     * prefetch stream unless it is already on its way there.
     */
    void demand(Addr pc);

    /** Install fault-injection hooks (applied at DIC fill time). */
    void setFaultHooks(FaultHooks* hooks) { hooks_ = hooks; }

    /**
     * If every PDU stage is provably idle until the in-flight memory
     * fetch lands — the PIR latch is empty, the PDR stage is gated
     * waiting for more parcels, the prefetcher is blocked on the busy
     * memory port, and a demand at @p issue_pc would be a no-op because
     * the stream is already headed there — return the cycle the fetch
     * completes. Otherwise return 0. The CPU uses this to fast-forward
     * over pure miss-stall cycles without simulating them one by one.
     */
    std::uint64_t pureWaitUntil(Addr issue_pc) const;

  private:
    void redirect(Addr pc);

    /** Is @p pc already covered by the queue or the decode stream? */
    bool streaming_toward(Addr pc) const;

    /** Byte address just past the last queued parcel. */
    Addr
    queueEnd() const
    {
        return decodePc_ + static_cast<Addr>(queued_) * kParcelBytes;
    }

    /**
     * The PDR window gate over the queue (queued_ > 0). Once it opens,
     * the memoized decode is exactly what decoding the queue would
     * produce. Only the first parcel is read, from the text itself.
     */
    bool
    windowReady() const
    {
        return decoder_.windowReady(
            prog_.text[(decodePc_ - prog_.textBase) / kParcelBytes],
            queued_, queueEnd() >= textEnd_);
    }

    const Program& prog_;
    const SimConfig& cfg_;
    DecodedCache& dic_;
    SimStats& stats_;
    FoldDecoder decoder_;
    /** prog_.textEnd(), hoisted out of the per-cycle stages. */
    const Addr textEnd_;

    /** Predecode tables consulted by the PDR stage (not owned). */
    PredecodeCache& predecode_;

    /** Byte address of the next parcel the prefetcher will request. */
    Addr prefetchPc_ = 0;
    /** Byte address of the first parcel in the queue (decode point). */
    Addr decodePc_ = 0;
    /** Instruction queue occupancy in parcels: the queue holds the
     *  text at decodePc_, decodePc_+2, ... */
    int queued_ = 0;

    /** In-flight memory fetch. */
    bool memBusy_ = false;
    std::uint64_t memReadyCycle_ = 0;
    Addr memAddr_ = 0;
    int memParcels_ = 0;

    /**
     * PIR latch: entry decoded last cycle, to be written to the DIC.
     * pirSrc_ points straight into the (stable) predecode table, so the
     * entry is copied once, into the DIC. Fault hooks corrupt a private
     * copy, never the shared tables.
     */
    bool pirValid_ = false;
    const DecodedInst* pirSrc_ = nullptr;

    /** Optional fault-injection hooks (not owned). */
    FaultHooks* hooks_ = nullptr;

    /**
     * The stream pauses once it decodes into code whose DIC entry is
     * already present (it has caught its own tail, e.g. gone once
     * around a loop); a demand miss wakes it again.
     */
    bool paused_ = false;
};

} // namespace crisp

#endif // CRISP_SIM_PDU_HH
