/**
 * @file
 * FastEngine implementation: the threaded dispatch loop.
 *
 * Dispatch strategy: on GCC/Clang each handler ends with its own
 * computed goto through the kind table (replicated indirect branches
 * give the host branch predictor one history slot per handler — the
 * classic direct-threading win). Defining CRISP_NO_COMPUTED_GOTO (or
 * building with a compiler without the labels-as-values extension)
 * selects a single-switch fallback with identical semantics; CI builds
 * both.
 *
 * The workhorse is the trace walker at `trace_entry`: it retires a
 * straight-line run of sequential ops (at most kTraceCap) in one
 * activation with a single cancel/budget poll, then hands the
 * terminating control op to its own handler. Every handler exit goes
 * through CRISP_NEXT(), which jumps straight back into the walker when
 * the successor starts a run (the "chain pointer": a hot loop
 * back-edge never re-enters the dispatcher). Indirect exits resolve
 * their target through a per-entry monomorphic inline cache before
 * falling back to the full address-to-index lookup.
 *
 * Equivalence discipline: every architectural effect below happens in
 * the interpreter's order — count the instruction, then execute it
 * (memory faults land *after* counting); branch targets are read
 * before the taken decision and before a call's push; fetch faults are
 * raised before counting. The three-way differential in
 * `crisptorture --engine-diff` holds this loop to that contract on
 * every seed.
 */

#include "fastengine.hh"

#include <algorithm>

#if defined(__GNUC__) && !defined(CRISP_NO_COMPUTED_GOTO)
#define CRISP_THREADED_DISPATCH 1
#else
#define CRISP_THREADED_DISPATCH 0
#endif

namespace crisp
{

namespace
{

inline Word
readOp(const TOperand& o, const MemoryImage& mem, Addr sp, Word accum)
{
    switch (o.mode) {
      case AddrMode::kImm:
        return static_cast<Word>(o.v);
      case AddrMode::kAccum:
        return accum;
      case AddrMode::kNone:
        return 0;
      case AddrMode::kStack:
        return static_cast<Word>(mem.read32(sp + o.v));
      case AddrMode::kAbs:
        return static_cast<Word>(mem.read32(o.v));
      case AddrMode::kInd:
        return static_cast<Word>(mem.read32(mem.read32(sp + o.v)));
    }
    return 0;
}

inline void
writeOp(const TOperand& o, Word v, MemoryImage& mem, Addr sp,
        Word& accum)
{
    switch (o.mode) {
      case AddrMode::kAccum:
        accum = v;
        return;
      case AddrMode::kStack:
        mem.write32(sp + o.v, static_cast<std::uint32_t>(v));
        return;
      case AddrMode::kAbs:
        mem.write32(o.v, static_cast<std::uint32_t>(v));
        return;
      case AddrMode::kInd:
        mem.write32(mem.read32(sp + o.v),
                    static_cast<std::uint32_t>(v));
        return;
      default:
        // The interpreter reaches the same error through
        // operandAddress() on a non-addressable destination.
        throw CrispError("operand has no address");
    }
}

/** Execute one computational body (the non-branch half of an entry). */
inline void
execBody(const TOp& t, MemoryImage& mem, Addr& sp, Word& accum,
         bool& flag)
{
    switch (t.body) {
      case TBody::kNop:
        return;
      case TBody::kEnter:
        sp -= t.frameBytes;
        return;
      case TBody::kLeave:
        sp += t.frameBytes;
        return;
      case TBody::kAddAccImm:
        // Same value evalAlu(kAdd, accum, src.v) produces: unsigned
        // wraparound add on the immediate's bit pattern.
        accum = static_cast<Word>(static_cast<std::uint32_t>(accum) +
                                  t.src.v);
        return;
      case TBody::kAlu2: {
        // Accumulator destination is by far the most common shape
        // (crispcc keeps every expression in the accumulator); skip
        // the generic operand resolvers for it.
        if (t.dst.mode == AddrMode::kAccum) {
            const Word b = t.src.mode == AddrMode::kImm
                               ? static_cast<Word>(t.src.v)
                               : readOp(t.src, mem, sp, accum);
            accum = evalAlu(t.bodyOp, accum, b);
            return;
        }
        const Word a = readOp(t.dst, mem, sp, accum);
        const Word b = readOp(t.src, mem, sp, accum);
        writeOp(t.dst, evalAlu(t.bodyOp, a, b), mem, sp, accum);
        return;
      }
      case TBody::kAlu3: {
        const Word a = readOp(t.dst, mem, sp, accum);
        const Word b = readOp(t.src, mem, sp, accum);
        accum = evalAlu(t.bodyOp, a, b);
        return;
      }
      case TBody::kCmp: {
        const Word a = readOp(t.dst, mem, sp, accum);
        const Word b = readOp(t.src, mem, sp, accum);
        flag = evalCompare(t.bodyOp, a, b);
        return;
      }
      case TBody::kMov:
        writeOp(t.dst, readOp(t.src, mem, sp, accum), mem, sp, accum);
        return;
      case TBody::kBad:
        throw CrispError("interpreter: unhandled opcode " +
                         std::string(opcodeName(t.bodyOp)));
    }
}

} // namespace

FastEngine::FastEngine(const Program& prog, const SimConfig& cfg,
                       PredecodeCache* shared_predecode,
                       const Translation* shared_translation,
                       const IndirectHints* hints)
    : cfg_(cfg)
{
    if (shared_translation != nullptr) {
        if (shared_translation->policy() != cfg.foldPolicy) {
            throw CrispError(
                "fastengine: shared translation was built under a "
                "different fold policy");
        }
        // Warm path: borrow the translation's program (its text is the
        // one the translation provably describes) — no copy, no
        // decode, no translate. Only the memory image is built.
        prog_ = &shared_translation->program();
        trans_ = shared_translation;
    } else {
        ownedProg_.emplace(prog);
        prog_ = &*ownedProg_;
        ownedTrans_ = std::make_unique<Translation>(
            *prog_, cfg.foldPolicy, shared_predecode, hints);
        trans_ = ownedTrans_.get();
    }
    mem_.load(*prog_);
    ic_.assign(trans_->size(), IC{});
    // Pre-fill the monomorphic caches with the translation's likely
    // targets: a hint-conforming first execution hits immediately.
    // Sound for the same reason refills are — indexOf is a pure
    // function of the translation.
    for (const auto& [idx, target] : trans_->icSeeds()) {
        IC& c = ic_[idx];
        c.valid = true;
        c.target = target;
        c.idx = trans_->indexOf(target);
    }
    pc_ = prog_->entry;
    sp_ = (prog_->memBytes - kWordBytes) & ~(kWordBytes - 1);
    stats_.engine = EngineKind::kFast;
}

Word
FastEngine::wordAt(const std::string& symbol) const
{
    const auto a = prog_->lookup(symbol);
    if (!a)
        throw CrispError("unknown symbol: " + symbol);
    return static_cast<Word>(mem_.read32(*a));
}

const SimStats&
FastEngine::run(ExecObserver* observer)
{
    if (halted_ || stats_.faulted)
        return stats_;
    // A cancelled/budget-stopped machine may be resumed; the final
    // status of this run replaces the previous stop status.
    stats_.cancelled = false;
    stats_.timedOut = false;
    if (observer)
        runLoop<true>(observer);
    else
        runLoop<false>(nullptr);
    return stats_;
}

#if CRISP_THREADED_DISPATCH
#define CRISP_HANDLER(K) h_##K:
#define CRISP_DISPATCH() \
    goto* kDispatchTable[static_cast<std::size_t>(op->kind)]
#else
#define CRISP_HANDLER(K) case TKind::K:
#define CRISP_DISPATCH() goto dispatch
#endif

/** Continue at *op: straight into the trace walker when the successor
 *  starts a run (hot back-edges skip the dispatcher), else through
 *  the handler table. */
#define CRISP_NEXT()          \
    do {                      \
        if (op->trace != 0)   \
            goto trace_entry; \
        CRISP_DISPATCH();     \
    } while (0)

template <bool Observed>
void
FastEngine::runLoop(ExecObserver* observer)
{
    (void)observer;
    const TOp* const ops = trans_->ops();
    IC* const ic = ic_.data();
    MemoryImage& mem = mem_;
    Addr sp = sp_;
    Word accum = accum_;
    bool flag = flag_;
    std::uint64_t apparent = 0;
    std::uint64_t issued = 0;
    std::uint64_t ic_hits = 0;
    std::uint64_t ic_misses = 0;
    std::uint64_t* const counts = stats_.opcodeCounts.data();

    // Fuel: instructions until the next cancel/budget poll. Polls
    // happen only on run and handler boundaries, so a run may finish
    // past the exact budget; the poll interval plus kTraceCap bound
    // the overshoot.
    std::int64_t fuel = static_cast<std::int64_t>(
        std::min<std::uint64_t>(cfg_.maxCycles, kCancelCheckInterval));
    // 0 = keep going, 1 = cancelled, 2 = instruction budget exhausted.
    const auto poll = [&]() -> int {
        if (cancel_ != nullptr &&
            cancel_->load(std::memory_order_relaxed)) {
            return 1;
        }
        const std::uint64_t done = stats_.apparent + apparent;
        if (done >= cfg_.maxCycles)
            return 2;
        fuel = static_cast<std::int64_t>(std::min<std::uint64_t>(
            cfg_.maxCycles - done, kCancelCheckInterval));
        return 0;
    };

    // Monomorphic inline cache consult for an indirect exit at *t:
    // last target and its pre-resolved index, refilled on miss. Sound
    // because indexOf is a pure function of the translation, which
    // never changes under the engine.
    const auto resolve = [&](const TOp* t, Addr target) {
        IC& c = ic[t - ops];
        if (c.valid && c.target == target) {
            ++ic_hits;
            return c.idx;
        }
        ++ic_misses;
        c.valid = true;
        c.target = target;
        c.idx = trans_->indexOf(target);
        return c.idx;
    };

    [[maybe_unused]] const auto emitBranch = [&](const TOp* t,
                                                 bool taken,
                                                 Addr target) {
        BranchEvent ev;
        ev.pc = t->branchPc;
        ev.op = t->branchOp;
        ev.conditional = isConditionalBranch(t->branchOp);
        ev.taken = taken;
        ev.predictTaken = t->predictTaken;
        ev.target = target;
        ev.fallThrough = t->seqPc;
        ev.shortForm = t->shortForm;
        ev.folded = t->folded;
        observer->onBranch(ev);
    };

    const TOp* op = nullptr;
    Addr npc = pc_;
    std::uint32_t ip = trans_->indexOf(pc_);
    int stop = 0;

    try {
#if CRISP_THREADED_DISPATCH
        // Order must mirror TKind exactly.
        const void* const kDispatchTable[] = {
            &&h_kChain, &&h_kJmp,  &&h_kCond, &&h_kCall,
            &&h_kRet,   &&h_kHalt, &&h_kTrap,
        };
#endif
        if (ip == kNoIdx)
            goto bad_fetch;
        op = &ops[ip];
        CRISP_NEXT();

#if !CRISP_THREADED_DISPATCH
      dispatch:
        switch (op->kind) {
#endif

        // Straight-line run: retire up to kTraceCap sequential ops in
        // one activation, then hand the terminating control op to its
        // own handler. Every kChain op heads a run, so this handler
        // *is* the walker.
        CRISP_HANDLER(kChain)
      trace_entry:
        {
            fuel -= op->trace;
            if (fuel <= 0) [[unlikely]] {
                if ((stop = poll()) != 0)
                    goto stopped;
            }
            for (std::uint32_t n = op->trace;;) {
                ++apparent;
                ++issued;
                ++counts[static_cast<std::size_t>(op->bodyOp)];
                if constexpr (Observed)
                    observer->onInstruction(op->pc, op->bodyOp);
                execBody(*op, mem, sp, accum, flag);
                ip = op->seqIdx;
                if (--n == 0)
                    break;
                op = &ops[ip];
            }
            if (ip == kNoIdx) [[unlikely]] {
                npc = op->seqPc;
                goto bad_fetch;
            }
            op = &ops[ip];
            CRISP_NEXT();
        }

        CRISP_HANDLER(kJmp)
        {
            fuel -= 1 + op->folded;
            if (fuel <= 0) [[unlikely]] {
                if ((stop = poll()) != 0)
                    goto stopped;
            }
            ++issued;
            if (op->folded) {
                ++apparent;
                ++counts[static_cast<std::size_t>(op->bodyOp)];
                if constexpr (Observed)
                    observer->onInstruction(op->pc, op->bodyOp);
                execBody(*op, mem, sp, accum, flag);
            }
            ++apparent;
            ++counts[static_cast<std::size_t>(op->branchOp)];
            if constexpr (Observed)
                observer->onInstruction(op->branchPc, op->branchOp);
            Addr target;
            if (op->dynTarget) [[unlikely]] {
                target = mem.read32(op->bmode == BranchMode::kIndSp
                                        ? sp + op->dynSpec
                                        : op->dynSpec);
                ip = resolve(op, target);
            } else {
                target = op->takenPc;
                ip = op->takenIdx;
            }
            ++stats_.branches;
            if (op->folded)
                ++stats_.foldedBranches;
            if constexpr (Observed)
                emitBranch(op, true, target);
            if (ip == kNoIdx) [[unlikely]] {
                npc = target;
                goto bad_fetch;
            }
            op = &ops[ip];
            CRISP_NEXT();
        }

        CRISP_HANDLER(kCond)
        {
            fuel -= 1 + op->folded;
            if (fuel <= 0) [[unlikely]] {
                if ((stop = poll()) != 0)
                    goto stopped;
            }
            ++issued;
            if (op->folded) {
                ++apparent;
                ++counts[static_cast<std::size_t>(op->bodyOp)];
                if constexpr (Observed)
                    observer->onInstruction(op->pc, op->bodyOp);
                // May write the flag the folded branch reads (a folded
                // compare): body first, exactly like the interpreter.
                execBody(*op, mem, sp, accum, flag);
            }
            ++apparent;
            ++counts[static_cast<std::size_t>(op->branchOp)];
            if constexpr (Observed)
                observer->onInstruction(op->branchPc, op->branchOp);
            Addr target;
            if (op->dynTarget) [[unlikely]] {
                // Target memory is read even when not taken (and may
                // fault), matching the interpreter's order.
                target = mem.read32(op->bmode == BranchMode::kIndSp
                                        ? sp + op->dynSpec
                                        : op->dynSpec);
            } else {
                target = op->takenPc;
            }
            const bool taken = op->condWhenTrue ? flag : !flag;
            ++stats_.branches;
            ++stats_.condBranches;
            if (op->folded)
                ++stats_.foldedBranches;
            if constexpr (Observed)
                emitBranch(op, taken, target);
            if (taken) {
                ip = op->dynTarget ? resolve(op, target)
                                   : op->takenIdx;
                if (ip == kNoIdx) [[unlikely]] {
                    npc = target;
                    goto bad_fetch;
                }
            } else {
                ip = op->seqIdx;
                if (ip == kNoIdx) [[unlikely]] {
                    npc = op->seqPc;
                    goto bad_fetch;
                }
            }
            op = &ops[ip];
            CRISP_NEXT();
        }

        CRISP_HANDLER(kCall)
        {
            // Calls are three-parcel and therefore never folded.
            --fuel;
            if (fuel <= 0) [[unlikely]] {
                if ((stop = poll()) != 0)
                    goto stopped;
            }
            ++issued;
            ++apparent;
            ++counts[static_cast<std::size_t>(op->branchOp)];
            if constexpr (Observed)
                observer->onInstruction(op->branchPc, op->branchOp);
            Addr target;
            if (op->dynTarget) [[unlikely]] {
                target = mem.read32(op->bmode == BranchMode::kIndSp
                                        ? sp + op->dynSpec
                                        : op->dynSpec);
            } else {
                target = op->takenPc;
            }
            // Push after the target read: a faulting indirect target
            // must leave SP untouched (interpreter order).
            sp -= kWordBytes;
            mem.write32(sp, op->callRetPc);
            ++stats_.branches;
            if constexpr (Observed)
                emitBranch(op, true, target);
            ip = op->dynTarget ? resolve(op, target) : op->takenIdx;
            if (ip == kNoIdx) [[unlikely]] {
                npc = target;
                goto bad_fetch;
            }
            op = &ops[ip];
            CRISP_NEXT();
        }

        CRISP_HANDLER(kRet)
        {
            --fuel;
            if (fuel <= 0) [[unlikely]] {
                if ((stop = poll()) != 0)
                    goto stopped;
            }
            ++issued;
            ++apparent;
            ++counts[static_cast<std::size_t>(Opcode::kReturn)];
            if constexpr (Observed)
                observer->onInstruction(op->pc, Opcode::kReturn);
            sp += op->frameBytes;
            const Addr target = mem.read32(sp);
            sp += kWordBytes;
            ip = resolve(op, target);
            if (ip == kNoIdx) [[unlikely]] {
                npc = target;
                goto bad_fetch;
            }
            op = &ops[ip];
            CRISP_NEXT();
        }

        CRISP_HANDLER(kHalt)
        {
            ++issued;
            ++apparent;
            ++counts[static_cast<std::size_t>(Opcode::kHalt)];
            if constexpr (Observed)
                observer->onInstruction(op->pc, Opcode::kHalt);
            halted_ = true;
            stats_.halted = true;
            pc_ = op->pc;
            goto out;
        }

        CRISP_HANDLER(kTrap)
        {
            // No decode exists here; the interpreter's fetch raises
            // this error before counting anything.
            stats_.faulted = true;
            stats_.faultPc = op->pc;
            stats_.faultReason = trans_->trapMessage(op->trapMsg);
            pc_ = op->pc;
            goto out;
        }

#if !CRISP_THREADED_DISPATCH
        }
        throw CrispError("fastengine: invalid dispatch kind");
#endif

      bad_fetch:
        stats_.faulted = true;
        stats_.faultPc = npc;
        stats_.faultReason = prog_->tryFetch(npc).error;
        pc_ = npc;
        goto out;

      stopped:
        if (stop == 1)
            stats_.cancelled = true;
        else
            stats_.timedOut = true;
        pc_ = op->pc;

      out:;
    } catch (const CrispError& e) {
        // A precise machine fault mid-instruction: counted state up to
        // and including the faulting instruction is already committed.
        stats_.faulted = true;
        stats_.faultPc = op != nullptr ? op->pc : npc;
        stats_.faultReason = e.what();
        pc_ = stats_.faultPc;
    }

    sp_ = sp;
    accum_ = accum;
    flag_ = flag;
    stats_.apparent += apparent;
    stats_.issued += issued;
    icHits_ += ic_hits;
    icMisses_ += ic_misses;
}

#undef CRISP_NEXT
#undef CRISP_HANDLER
#undef CRISP_DISPATCH

// The two loop flavours used by run().
template void FastEngine::runLoop<true>(ExecObserver*);
template void FastEngine::runLoop<false>(ExecObserver*);

} // namespace crisp
