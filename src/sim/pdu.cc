/**
 * @file
 * Prefetch and Decode Unit implementation.
 */

#include "pdu.hh"

namespace crisp
{

Pdu::Pdu(const Program& prog, const SimConfig& cfg, DecodedCache& dic,
         SimStats& stats, PredecodeCache& predecode)
    : prog_(prog), cfg_(cfg), dic_(dic), stats_(stats),
      decoder_(cfg.foldPolicy), textEnd_(prog.textEnd()),
      predecode_(predecode)
{
    if (cfg.queueParcels < 1 || cfg.queueParcels > kMaxQueueParcels)
        throw CrispError("PDU: queueParcels must be in [1, 64]");
    redirect(prog.entry);
}

void
Pdu::redirect(Addr pc)
{
    queued_ = 0;
    decodePc_ = pc;
    prefetchPc_ = pc;
    paused_ = false;
    // An in-flight memory fetch cannot be aborted; its result will be
    // discarded on arrival because it no longer extends the queue.
}

bool
Pdu::streaming_toward(Addr pc) const
{
    if (pirValid_ && pirSrc_->pc == pc)
        return true;
    if (paused_)
        return false;
    Addr end = queueEnd();
    if (memBusy_ && memAddr_ == end)
        end += static_cast<Addr>(memParcels_) * kParcelBytes;
    // Also count the block the prefetcher will request next: the stream
    // is contiguous from decodePc_ onward.
    return pc >= decodePc_ && pc < end;
}

void
Pdu::demand(Addr pc)
{
    if (streaming_toward(pc))
        return;
    if (paused_ && pc == decodePc_) {
        // The stream is parked exactly here (e.g. a conflict evicted an
        // entry we already decoded): just resume.
        paused_ = false;
        return;
    }
    redirect(pc);
}

std::uint64_t
Pdu::pureWaitUntil(Addr issue_pc) const
{
    if (!memBusy_ || pirValid_ || paused_)
        return 0;
    if (!streaming_toward(issue_pc))
        return 0; // a demand this cycle would redirect the stream
    if (queued_ > 0) {
        if (dic_.lookup(decodePc_) != nullptr)
            return 0; // the PDR stage would park
        if (windowReady())
            return 0; // the PDR stage would decode (a state change)
    }
    // PIR empty, PDR starved, prefetch blocked on the busy port: ticks
    // strictly before memReadyCycle_ cannot change any modelled state.
    return memReadyCycle_;
}

void
Pdu::tick(std::uint64_t now)
{
    // Parked with nothing in flight: every stage below is a no-op (the
    // PDR and prefetch stages are gated on !paused_, the PIR latch and
    // the memory port are empty), so the whole tick can return early.
    // Pure host-speed: no modelled state can change this cycle.
    if (paused_ && !pirValid_ && !memBusy_)
        return;

    // Stage 3 (PIR): write last cycle's decoded entry into the DIC. A
    // fault hook may corrupt the entry or veto the fill entirely (it
    // gets a private copy: the predecode tables stay golden).
    if (pirValid_) {
        pirValid_ = false;
        if (hooks_ == nullptr) {
            dic_.fill(*pirSrc_);
            ++stats_.pduFills;
        } else {
            DecodedInst copy = *pirSrc_;
            if (hooks_->onDicFill(copy)) {
                dic_.fill(copy);
                ++stats_.pduFills;
            }
        }
    }

    // Memory completion: parcels arrive at the queue tail. A block that
    // no longer extends the queue (the stream was redirected while it
    // was in flight) is discarded, so the queue only ever holds the
    // text from decodePc_ onward.
    if (memBusy_ && now >= memReadyCycle_) {
        memBusy_ = false;
        if (memAddr_ == queueEnd()) {
            // Same guards (and fault messages) parcelAt applied per
            // parcel, hoisted to the block: a corrupted redirect can
            // park the fetch address anywhere. A block starting aligned
            // and inside text stays inside it (length was clipped to
            // the segment when the fetch was issued).
            if (memAddr_ % kParcelBytes != 0)
                throw CrispError("unaligned parcel fetch");
            if (!prog_.inText(memAddr_))
                throw CrispError("parcel fetch outside text segment");
            queued_ += memParcels_;
            // Decode may have followed a call or jump straight into
            // this block while it was in flight, pointing the
            // prefetcher back at it: the next block starts after it.
            prefetchPc_ =
                memAddr_ + static_cast<Addr>(memParcels_) * kParcelBytes;
        }
    }

    // Stage 2 (PDR): decode (and fold) from the queue.
    if (!paused_ && queued_ > 0) {
        if (dic_.lookup(decodePc_) != nullptr) {
            // Wrapped into already decoded code (e.g. around a loop):
            // park until a demand miss re-awakens the stream.
            paused_ = true;
        } else if (windowReady()) {
            // The gate opened, so the instruction fits in the text and
            // its memoized entry is valid unless it does not decode.
            const PredecodeCache::Entry& e =
                predecode_.at(decodePc_, cfg_.foldPolicy);
            if (e.error != nullptr)
                throw CrispError(e.error);
            const DecodedInst* di = &e.di;
            pirSrc_ = di; // stable predecode-table storage
            pirValid_ = true;
            if (di->folded)
                ++stats_.pduFoldedPairs;
            queued_ -= di->totalParcels;
            decodePc_ += static_cast<Addr>(di->totalParcels) * kParcelBytes;

            // Follow the predicted instruction path.
            const bool follow_taken =
                di->ctl == Ctl::kJmp || di->ctl == Ctl::kCall ||
                (di->hasCondBranch() && cfg_.respectPredictionBit &&
                 di->predictTaken);
            if (follow_taken && di->takenPc != decodePc_) {
                queued_ = 0;
                decodePc_ = di->takenPc;
                prefetchPc_ = di->takenPc;
            } else if (di->ctl == Ctl::kRet || di->ctl == Ctl::kIndirect ||
                       di->ctl == Ctl::kHalt) {
                paused_ = true;
            }
        } else if (queueEnd() >= textEnd_ && !memBusy_ &&
                   prefetchPc_ >= textEnd_) {
            throw CrispError("PDU: truncated instruction at end of "
                             "text segment");
        }
    }

    // Stage 1: prefetch. Request up to a 4-parcel block, clipped to the
    // queue room actually available (a full-size-only rule would
    // deadlock a 6-parcel folded decode window against an 8-parcel
    // queue).
    if (!paused_ && !memBusy_) {
        const Addr text_end = textEnd_;
        if (queued_ == 0 && prefetchPc_ >= text_end) {
            // The stream ran off the end of text and everything fetched
            // has been consumed: no stage can ever make progress again
            // without a redirect. Park so idle ticks take the early-out
            // above. demand() treats an exhausted stream and a parked
            // one identically (streaming_toward is false either way).
            paused_ = true;
            return;
        }
        const int room = cfg_.queueParcels - queued_;
        if (prefetchPc_ < text_end && room > 0) {
            const Addr remaining =
                (text_end - prefetchPc_) / kParcelBytes;
            memParcels_ = remaining < 4 ? static_cast<int>(remaining) : 4;
            if (memParcels_ > room)
                memParcels_ = room;
            memAddr_ = prefetchPc_;
            memBusy_ = true;
            memReadyCycle_ = now + static_cast<std::uint64_t>(
                                       cfg_.memLatency);
            prefetchPc_ +=
                static_cast<Addr>(memParcels_) * kParcelBytes;
            ++stats_.memFetches;
        }
    }
}

} // namespace crisp
