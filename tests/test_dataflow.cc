/**
 * @file
 * Tests for the sparse dataflow framework (src/analysis): backward
 * liveness and dead-store detection, reaching definitions and their
 * const-prop / redundant-copy consumers, sparse conditional constant
 * propagation, the abstract interpreter's widening corners, the
 * translation validator, and the crispcc -O driver that ties them all
 * together (including the --tamper-dce negative path).
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "analysis/callgraph.hh"
#include "analysis/checks.hh"
#include "analysis/liveness.hh"
#include "analysis/opt.hh"
#include "analysis/reachdefs.hh"
#include "analysis/sccp.hh"
#include "analysis/targets.hh"
#include "analysis/tv.hh"
#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "verify/enginediff.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace crisp;
using namespace crisp::analysis;

bool
hasRule(const AnalysisResult& r, const std::string& rule)
{
    for (const Diagnostic& d : r.diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

/** Issue point whose body is the given opcode (first match). */
const CfgNode*
findBody(const Cfg& cfg, Opcode op)
{
    for (const auto& [pc, n] : cfg.nodes()) {
        if (n.di.body.op == op)
            return &n;
    }
    return nullptr;
}

// ----------------------------------------------------- flat containers

TEST(Flat, SetAndMapAgreeWithStdReference)
{
    constexpr std::size_t kPool = 5;
    constexpr int kKeys = 48;
    std::mt19937 rng(5);
    std::vector<FlatSet<int>> fs(kPool);
    std::vector<std::set<int>> rs(kPool);
    std::vector<FlatMap<Addr, int>> fm(kPool);
    std::vector<std::map<Addr, int>> rm(kPool);
    const auto key = [&] { return static_cast<int>(rng() % kKeys); };
    for (int step = 0; step < 20'000; ++step) {
        const std::size_t i = rng() % kPool;
        const std::size_t x = rng() % kPool;
        const std::size_t y = rng() % kPool;
        const int k = key();
        const std::string at = "step " + std::to_string(step);
        switch (rng() % 8) {
          case 0:
          case 1:
            ASSERT_EQ(fs[i].insert(k), rs[i].insert(k).second) << at;
            fm[i][static_cast<Addr>(k)] = step;
            rm[i][static_cast<Addr>(k)] = step;
            break;
          case 2:
            ASSERT_EQ(fs[i].erase(k), rs[i].erase(k) != 0) << at;
            fm[i].erase(static_cast<Addr>(k));
            rm[i].erase(static_cast<Addr>(k));
            break;
          case 3: {
            // Union by merge (the value-set join) and intersection by
            // common keys (the fact-map joins).
            FlatSet<int> u;
            std::set_union(fs[x].begin(), fs[x].end(), fs[y].begin(),
                           fs[y].end(), std::back_inserter(u));
            fs[i] = u;
            std::set<int> ru = rs[x];
            ru.insert(rs[y].begin(), rs[y].end());
            rs[i] = ru;
            FlatMap<Addr, int> c;
            forCommonKeys(fm[x], fm[y], [&](Addr a, int va, int vb) {
                c.emplace_back(a, va - vb);
            });
            fm[i] = c;
            std::map<Addr, int> rc;
            for (const auto& [a, va] : rm[x]) {
                const auto it = rm[y].find(a);
                if (it != rm[y].end())
                    rc.emplace(a, va - it->second);
            }
            rm[i] = rc;
            break;
          }
          case 4:
            // Drop everything from k up, as a havoc of memory does.
            fs[i].erase(fs[i].lower_bound(k), fs[i].end());
            rs[i].erase(rs[i].lower_bound(k), rs[i].end());
            break;
          case 5: {
            const int k2 = key();
            fs[i] = FlatSet<int>{k, k2, k};
            rs[i] = std::set<int>{k, k2, k};
            break;
          }
          case 6: {
            const auto fit = fm[i].find(static_cast<Addr>(k));
            const auto rit = rm[i].find(static_cast<Addr>(k));
            ASSERT_EQ(fit == fm[i].end(), rit == rm[i].end()) << at;
            if (fit != fm[i].end()) {
                ASSERT_EQ(fit->second, rit->second) << at;
                fit->second = -step;
                rit->second = -step;
            }
            break;
          }
          default:
            if (rng() % 8 == 0) {
                fs[i].clear();
                rs[i].clear();
                fm[i].clear();
                rm[i].clear();
            }
            break;
        }
        ASSERT_EQ(std::vector<int>(fs[i].begin(), fs[i].end()),
                  std::vector<int>(rs[i].begin(), rs[i].end()))
            << at;
        ASSERT_EQ(fs[i].size(), rs[i].size()) << at;
        for (int q = -1; q <= kKeys; ++q)
            ASSERT_EQ(fs[i].contains(q), rs[i].count(q) != 0) << at;
        ASSERT_EQ(fm[i].size(), rm[i].size()) << at;
        ASSERT_TRUE(std::equal(fm[i].begin(), fm[i].end(), rm[i].begin(),
                               rm[i].end(),
                               [](const auto& f, const auto& r) {
                                   return f.first == r.first &&
                                          f.second == r.second;
                               }))
            << at;
        ASSERT_EQ(fs[i] == fs[x], rs[i] == rs[x]) << at;
        ASSERT_EQ(fm[i] == fm[x], rm[i] == rm[x]) << at;
    }
}

// ------------------------------------------------------------ liveness

TEST(Liveness, OverwrittenStackStoreIsDead)
{
    const Program p = assemble(R"(
    .entry main
    .local a 0
main:
    enter 1
    mov a, 7
    mov a, 8
    mov Accum, a
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    const LivenessResult live = computeLiveness(cfg, ai);
    ASSERT_EQ(live.dead.size(), 1u);
    EXPECT_EQ(live.dead[0].kind, DeadKind::kMemStore);
    // The dead one is the first store (lowest pc in the function).
    for (const DeadStore& d : live.dead)
        EXPECT_LT(d.pc, cfg.nodes().rbegin()->first);
}

TEST(Liveness, FinalGlobalStoreIsLiveAtHalt)
{
    const Program p = assemble(R"(
    .global g 0
    .entry main
main:
    enter 1
    mov g, 41
    mov g, 42
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    const LivenessResult live = computeLiveness(cfg, ai);
    // The overwritten store dies; the final one is observable at halt
    // (the data segment is part of the exit contract) and must never
    // be reported.
    ASSERT_EQ(live.dead.size(), 1u);
    EXPECT_EQ(live.dead[0].kind, DeadKind::kMemStore);
    const Program run = p;
    Interpreter interp(run);
    ASSERT_TRUE(interp.run(10'000).halted);
    EXPECT_EQ(interp.wordAt("g"), 42u);
}

TEST(Liveness, CompareWithDeadFlagIsReported)
{
    const Program p = assemble(R"(
    .entry main
    .local a 0
main:
    enter 1
    mov a, 1
    cmp.= a, 1
    cmp.= a, 2
    add a, 1
    add a, 2
    add a, 3
    iftjmpn done
    add a, 4
done:
    mov Accum, a
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    const LivenessResult live = computeLiveness(cfg, ai);
    bool dead_compare = false;
    for (const DeadStore& d : live.dead)
        dead_compare |= d.kind == DeadKind::kCompare;
    EXPECT_TRUE(dead_compare)
        << "the first compare's flag is overwritten before any branch";
}

/** The std::set model of live memory that MemLive's flat set must
 *  reproduce operation for operation. */
struct RefMemLive
{
    bool all = false;
    std::set<Addr> words;

    bool
    isLive(Addr a) const
    {
        return all ? words.count(a) == 0 : words.count(a) != 0;
    }

    void
    gen(Addr a)
    {
        if (all)
            words.erase(a);
        else
            words.insert(a);
    }

    void
    kill(Addr a)
    {
        if (all)
            words.insert(a);
        else
            words.erase(a);
    }
};

RefMemLive
refJoin(const RefMemLive& a, const RefMemLive& b)
{
    RefMemLive j;
    j.all = a.all || b.all;
    if (!j.all) {
        j.words = a.words;
        j.words.insert(b.words.begin(), b.words.end());
    } else if (a.all && b.all) {
        for (const Addr w : a.words) {
            if (b.words.count(w) != 0)
                j.words.insert(w);
        }
    } else {
        const RefMemLive& co = a.all ? a : b;
        const RefMemLive& fin = a.all ? b : a;
        for (const Addr w : co.words) {
            if (fin.words.count(w) == 0)
                j.words.insert(w);
        }
    }
    return j;
}

TEST(Liveness, FlatMemorySetAgreesWithSetReference)
{
    constexpr std::size_t kPool = 6;
    constexpr Addr kBase = 0x1000;
    constexpr Addr kWords = 24;
    std::mt19937 rng(7);
    std::vector<MemLive> flat(kPool);
    std::vector<RefMemLive> ref(kPool);
    const auto word = [&] {
        return kBase + kWordBytes * static_cast<Addr>(rng() % kWords);
    };
    int finite_steps = 0;
    int coset_steps = 0;
    for (int step = 0; step < 20'000; ++step) {
        const std::size_t i = rng() % kPool;
        const unsigned op = rng() % 20;
        if (op < 6) {
            const Addr a = word();
            flat[i].gen(a);
            ref[i].gen(a);
        } else if (op < 12) {
            const Addr a = word();
            flat[i].kill(a);
            ref[i].kill(a);
        } else if (op < 17) {
            const std::size_t x = rng() % kPool;
            const std::size_t y = rng() % kPool;
            flat[i] = joinMemLive(flat[x], flat[y]);
            ref[i] = refJoin(ref[x], ref[y]);
        } else if (op < 18) {
            flat[i].genAll();
            ref[i] = RefMemLive{true, {}};
        } else {
            flat[i] = MemLive{};
            ref[i] = RefMemLive{};
        }
        ASSERT_EQ(flat[i].all, ref[i].all) << "step " << step;
        ASSERT_EQ(std::vector<Addr>(flat[i].words.begin(),
                                    flat[i].words.end()),
                  std::vector<Addr>(ref[i].words.begin(),
                                    ref[i].words.end()))
            << "step " << step;
        for (Addr a = kBase - kWordBytes;
             a <= kBase + kWordBytes * kWords; a += kWordBytes) {
            ASSERT_EQ(flat[i].isLive(a), ref[i].isLive(a))
                << "step " << step << " word " << a;
        }
        ++(flat[i].all ? coset_steps : finite_steps);
    }
    // Both encodings, and every mix of them in a join, were exercised.
    EXPECT_GT(finite_steps, 2'000);
    EXPECT_GT(coset_steps, 2'000);
}

// ----------------------------------------------------------- reachdefs

TEST(ReachDefs, ImmediateMovFeedsConstPropUse)
{
    const Program p = assemble(R"(
    .entry main
    .local a 0
    .local b 1
main:
    enter 2
    mov a, 5
    add b, a
    mov Accum, b
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    const ReachDefsResult rd = computeReachDefs(cfg, ai);
    EXPECT_TRUE(rd.converged);
    const auto uses = findConstPropUses(cfg, rd, ai);
    bool found = false;
    for (const ConstUse& u : uses)
        found |= u.value == 5;
    EXPECT_TRUE(found) << "add b, a reads a, uniquely defined mov a, 5";
}

TEST(ReachDefs, RepeatedCopyIsRedundant)
{
    const Program p = assemble(R"(
    .entry main
    .local a 0
    .local b 1
main:
    enter 2
    mov b, 9
    mov a, b
    add Accum, 1
    mov a, b
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    const ReachDefsResult rd = computeReachDefs(cfg, ai);
    const auto copies = findRedundantCopies(cfg, rd, ai);
    EXPECT_FALSE(copies.empty())
        << "the second mov a, b rewrites a with its own value";
}

/** The std::map model of reaching definitions that RdState's flat
 *  pairs must reproduce: define, havoc and join as they were written
 *  over std::map<LocKey, std::set<Addr>>. @p caps counts the states
 *  that crossed the location cap. */
struct RefRd
{
    bool reachable = false;
    std::map<LocKey, std::set<Addr>> defs;

    void
    define(LocKey k, Addr site, int& caps)
    {
        defs[k] = {site};
        if (defs.size() > kRdKeyCap) {
            defs.clear();
            ++caps;
        }
    }

    void
    havocMem()
    {
        for (auto it = defs.begin(); it != defs.end();) {
            if (it->first >= 0)
                it = defs.erase(it);
            else
                ++it;
        }
    }

    using Pairs = std::vector<std::pair<LocKey, Addr>>;

    Pairs
    pairs() const
    {
        Pairs v;
        for (const auto& [k, sites] : defs) {
            for (const Addr s : sites)
                v.emplace_back(k, s);
        }
        return v;
    }
};

RefRd
refJoinRd(const RefRd& a, const RefRd& b, int& caps)
{
    if (!a.reachable)
        return b;
    if (!b.reachable)
        return a;
    RefRd j;
    j.reachable = true;
    j.defs = a.defs;
    for (auto& [k, sites] : j.defs) {
        const auto it = b.defs.find(k);
        if (it == b.defs.end())
            sites.insert(kWildDef); // missing on the other side: wild
        else
            sites.insert(it->second.begin(), it->second.end());
    }
    for (const auto& [k, sites] : b.defs) {
        if (j.defs.count(k) != 0)
            continue;
        auto& js = j.defs[k];
        js = sites;
        js.insert(kWildDef);
    }
    if (j.defs.size() > kRdKeyCap) {
        j.defs.clear();
        ++caps;
    }
    return j;
}

TEST(ReachDefs, FlatStateAgreesWithMapReference)
{
    constexpr std::size_t kPool = 6;
    constexpr Addr kBase = 0x1000;
    constexpr Addr kWords = 640; // more memory words than the key cap
    std::mt19937 rng(11);
    std::vector<RdState> flat(kPool);
    std::vector<RefRd> ref(kPool);
    using Pairs = RefRd::Pairs;
    for (std::size_t i = 0; i < kPool; ++i)
        flat[i].reachable = ref[i].reachable = true;
    const auto word = [&](Addr w) {
        return static_cast<LocKey>(kBase + kWordBytes * (w % kWords));
    };
    const auto loc = [&]() -> LocKey {
        const unsigned r = rng() % 10;
        if (r == 0)
            return kAccumLoc;
        if (r == 1)
            return kFlagLoc;
        return word(rng());
    };
    const auto site = [&] {
        return 0x100 + 2 * static_cast<Addr>(rng() % 8);
    };
    int caps = 0;
    int joins = 0;
    for (int step = 0; step < 20'000; ++step) {
        const std::size_t i = rng() % kPool;
        const unsigned op = rng() % 40;
        if (op < 14) {
            const LocKey k = loc();
            const Addr d = site();
            flat[i].define(k, d);
            ref[i].define(k, d, caps);
        } else if (op < 19) {
            // A run of stores over consecutive words, like a loop
            // filling an array: the way states grow past the cap.
            const Addr w0 = rng();
            const Addr d = site();
            for (Addr w = w0; w < w0 + 96; ++w) {
                flat[i].define(word(w), d);
                ref[i].define(word(w), d, caps);
            }
        } else if (op < 33) {
            const std::size_t x = rng() % kPool;
            const std::size_t y = rng() % kPool;
            flat[i] = joinRd(flat[x], flat[y]);
            ref[i] = refJoinRd(ref[x], ref[y], caps);
            ++joins;
        } else if (op < 36) {
            flat[i].havocMem();
            ref[i].havocMem();
        } else if (op < 39) {
            flat[i] = RdState{};
            flat[i].reachable = true;
            ref[i] = RefRd{true, {}};
        } else {
            flat[i] = RdState{};
            ref[i] = RefRd{};
        }
        const std::string at = "step " + std::to_string(step);
        ASSERT_EQ(flat[i].reachable, ref[i].reachable) << at;
        ASSERT_EQ(Pairs(flat[i].defs.begin(), flat[i].defs.end()),
                  ref[i].pairs())
            << at;
        for (const LocKey k : {kAccumLoc, kFlagLoc, loc()}) {
            const auto it = ref[i].defs.find(k);
            const std::vector<Addr> want =
                it == ref[i].defs.end()
                    ? std::vector<Addr>{kWildDef}
                    : std::vector<Addr>(it->second.begin(),
                                        it->second.end());
            ASSERT_EQ(flat[i].defsOf(k), want) << at << " key " << k;
        }
        // Equality decides when the solver stops: it must agree too.
        const std::size_t o = rng() % kPool;
        ASSERT_EQ(flat[i] == flat[o],
                  ref[i].reachable == ref[o].reachable &&
                      ref[i].defs == ref[o].defs)
            << at;
    }
    // Joins ran, and states crossed the 512-location cap both in a
    // define and in a join.
    EXPECT_GT(joins, 5'000);
    EXPECT_GT(caps, 20);
}

// ---------------------------------------------------------------- sccp

TEST(Sccp, EdgePruningProvesCorrelatedCascade)
{
    // clip is 0 unless v > lim, and v is masked below lim — so the
    // `if (clip)` arm is unreachable. A plain join over both edges of
    // the first branch cannot see that; edge pruning can.
    const auto r = cc::compile(R"(
int out;
int main()
{
    int v, clip, lim;
    v = out & 1023;
    lim = 4095;
    clip = 0;
    if (v > lim)
        clip = 1;
    if (clip)
        out = 9;
    out = v;
    return v;
}
)");
    Cfg cfg(r.program, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    const SccpResult sc = sccp(cfg);
    EXPECT_GE(sc.provenDirection.size(), 2u);
    int sccp_only_unreachable = 0;
    for (const auto& [pc, n] : cfg.nodes()) {
        const bool plain = ai.in.at(pc).reachable;
        const bool sparse = sc.state.in.at(pc).reachable;
        EXPECT_TRUE(!sparse || plain)
            << "SCCP reaches a node absint does not: " << pc;
        if (plain && !sparse)
            ++sccp_only_unreachable;
    }
    EXPECT_GT(sccp_only_unreachable, 0)
        << "the clip arm should be unreachable only under SCCP";
}

/** a's every component is contained in b's (a refines b). */
bool
intervalIn(const Interval& a, const Interval& b)
{
    return a.lo >= b.lo && a.hi <= b.hi;
}

bool
stateIn(const AbsState& s, const AbsState& t)
{
    if (!s.reachable)
        return true;
    if (!t.reachable)
        return false;
    if (!intervalIn(s.accum, t.accum) || !intervalIn(s.sp, t.sp))
        return false;
    if ((s.flag.mayTrue && !t.flag.mayTrue) ||
        (s.flag.mayFalse && !t.flag.mayFalse))
        return false;
    for (const auto& [addr, iv] : t.mem) {
        const auto it = s.mem.find(addr);
        if (it == s.mem.end() || !intervalIn(it->second, iv))
            return false;
    }
    return true;
}

TEST(Sccp, AtLeastAsPreciseAsAbsintAcross200SeedsAndPolicies)
{
    // The documented precision relation (sccp.hh): every state SCCP
    // reports is contained in the plain interpreter's state at the
    // same point, and SCCP never reaches a node absint proves
    // unreachable. Both fixpoints must converge: a bail to all-top
    // would make the containment moot.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Program p = verify::generate(seed).link();
        for (FoldPolicy fp :
             {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
            Cfg cfg(p, fp);
            const AbsIntResult ai = interpret(cfg);
            const SccpResult sc = sccp(cfg);
            const std::string at = "seed " + std::to_string(seed) +
                                   " fold " +
                                   std::to_string(static_cast<int>(fp));
            ASSERT_TRUE(ai.converged) << at;
            ASSERT_TRUE(sc.state.converged) << at;
            for (const auto& [pc, n] : cfg.nodes()) {
                EXPECT_TRUE(stateIn(sc.state.in.at(pc), ai.in.at(pc)))
                    << at << " node " << pc
                    << ": SCCP in-state escapes the plain in-state";
                EXPECT_TRUE(stateIn(sc.state.out.at(pc), ai.out.at(pc)))
                    << at << " node " << pc
                    << ": SCCP out-state escapes the plain out-state";
            }
            for (Addr pc : sc.executable) {
                EXPECT_TRUE(ai.in.at(pc).reachable)
                    << at << " node " << pc
                    << ": executable under SCCP, unreachable under absint";
            }
        }
    }
}

// ----------------------------------------------------------- fixpoints

/** Every location live in @p a is live in @p b. */
bool
liveIn(const LiveSet& a, const LiveSet& b)
{
    if ((a.accum && !b.accum) || (a.flag && !b.flag))
        return false;
    const MemLive& x = a.mem;
    const MemLive& y = b.mem;
    if (!x.all) {
        for (const Addr w : x.words) {
            if (!y.isLive(w))
                return false;
        }
        return true;
    }
    if (!y.all)
        return false; // all-but-finite never fits in a finite set
    for (const Addr w : y.words) {
        if (x.isLive(w))
            return false;
    }
    return true;
}

/**
 * Checks that a published interval fixpoint really is one, using only
 * the public transfer function: OUT is the transfer of IN at every
 * reachable node, and IN contains the OUT of every predecessor whose
 * edge carries state unchanged. (Call -> return-site edges carry
 * all-top; SCCP's conditional edges refine the flag, so only the
 * transfer half applies to it.)
 */
void
expectAbsFixpoint(const Cfg& cfg, const AbsIntResult& r, bool plain_edges,
                  const std::string& at)
{
    for (const auto& [pc, n] : cfg.nodes()) {
        const AbsState& in = r.in.at(pc);
        if (!in.reachable)
            continue;
        const AbsState out =
            n.di.totalParcels > 0 ? absTransfer(n.di, in) : in;
        EXPECT_TRUE(r.out.at(pc) == out)
            << at << " node " << pc << ": OUT is not the transfer of IN";
        if (!plain_edges)
            continue;
        for (const Addr p : n.preds) {
            const DecodedInst& pdi = cfg.node(p).di;
            if (pdi.ctl == Ctl::kCall && pc == pdi.callRetPc)
                continue;
            EXPECT_TRUE(stateIn(r.out.at(p), in))
                << at << " edge " << p << " -> " << pc
                << ": IN misses a predecessor's OUT";
        }
    }
}

/** Live-out contains every successor's live-in at every node that
 *  executes under @p ai (the others never run and stay empty). */
void
expectLiveFixpoint(const Cfg& cfg, const LivenessResult& r,
                   const AbsIntResult& ai, const std::string& at)
{
    for (const auto& [pc, n] : cfg.nodes()) {
        if (!ai.in.at(pc).reachable)
            continue;
        for (const Addr s : n.succs) {
            EXPECT_TRUE(liveIn(r.in.at(s), r.out.at(pc)))
                << at << " edge " << pc << " -> " << s
                << ": live-out misses a successor's live-in";
        }
    }
}

/** Under every fold policy, every analysis converges and the
 *  published interval and liveness results are fixpoints. */
void
expectPublishedFixpoints(const Program& prog, const std::string& name)
{
    for (FoldPolicy fp :
         {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
        const Cfg cfg(prog, fp);
        const std::string at =
            name + " fold " + std::to_string(static_cast<int>(fp));
        const AbsIntResult ai = interpret(cfg);
        const SccpResult sc = sccp(cfg);
        const LivenessResult lv = computeLiveness(cfg, sc.state);
        const CallGraph cg(cfg);
        EXPECT_TRUE(ai.converged) << at << " absint";
        EXPECT_TRUE(sc.state.converged) << at << " sccp";
        EXPECT_TRUE(lv.converged) << at << " liveness";
        EXPECT_TRUE(computeReachDefs(cfg, sc.state).converged)
            << at << " reachdefs";
        EXPECT_TRUE(analyzeTargets(cfg, cg, sc).converged)
            << at << " targets";
        if (!ai.converged || !sc.state.converged || !lv.converged)
            continue; // a bail publishes all-top, not a fixpoint
        expectAbsFixpoint(cfg, ai, /*plain_edges=*/true, at + " absint");
        expectAbsFixpoint(cfg, sc.state, /*plain_edges=*/false,
                          at + " sccp");
        expectLiveFixpoint(cfg, lv, sc.state, at + " liveness");
    }
}

TEST(Fixpoint, EveryAnalysisConvergesToAFixpointOnEveryWorkload)
{
    for (const Workload& w : allWorkloads())
        expectPublishedFixpoints(cc::compile(w.source).program, w.name);
}

TEST(Fixpoint, EveryAnalysisConvergesToAFixpointAcross200Seeds)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        expectPublishedFixpoints(verify::generate(seed).link(),
                                 "seed " + std::to_string(seed));
    }
}

/** join(bottom, s) and join(s, bottom) are @p s itself, exactly. */
template <class State, class Join>
void
expectBottomIsIdentity(const std::map<Addr, State>& states, Join join,
                       const std::string& at)
{
    for (const auto& [pc, s] : states) {
        EXPECT_TRUE(join(State{}, s) == s) << at << " node " << pc;
        EXPECT_TRUE(join(s, State{}) == s) << at << " node " << pc;
    }
}

TEST(Fixpoint, BottomIsTheIdentityOfEveryJoin)
{
    // The solver takes a node's first incoming state as it is instead
    // of joining it into State{}, which is sound only because bottom
    // is the identity of join (docs/ANALYSIS.md, the policy contract).
    const auto mem = [](const std::map<Addr, LiveSet>& live) {
        std::map<Addr, MemLive> m;
        for (const auto& [pc, s] : live)
            m.emplace(pc, s.mem);
        return m;
    };
    for (const Workload& w : allWorkloads()) {
        const Program prog = cc::compile(w.source).program;
        for (FoldPolicy fp :
             {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
            const Cfg cfg(prog, fp);
            const std::string at =
                w.name + " fold " + std::to_string(static_cast<int>(fp));
            const AbsIntResult ai = interpret(cfg);
            const SccpResult sc = sccp(cfg);
            const LivenessResult lv = computeLiveness(cfg, sc.state);
            for (const auto* states : {&ai.in, &ai.out, &sc.state.in,
                                       &sc.state.out}) {
                expectBottomIsIdentity(*states, joinState,
                                       at + " joinState");
            }
            expectBottomIsIdentity(computeReachDefs(cfg, sc.state).in,
                                   joinRd, at + " joinRd");
            expectBottomIsIdentity(mem(lv.in), joinMemLive,
                                   at + " joinMemLive in");
            expectBottomIsIdentity(mem(lv.out), joinMemLive,
                                   at + " joinMemLive out");
        }
    }
}

/** FNV-1a (64-bit) of @p s, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string& s)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One analysis's solver work, summed over many runs. */
struct Work
{
    std::uint64_t steps = 0;
    std::uint64_t widenings = 0;
    int unconverged = 0;

    void
    add(const FixpointRun& r)
    {
        steps += r.steps;
        widenings += static_cast<std::uint64_t>(r.widenings);
        unconverged += r.converged ? 0 : 1;
    }
};

/** The five fixpoints' work and the lint-report digest of generated
 *  programs 1–200 under one fold policy. */
struct SeedPin
{
    FoldPolicy policy;
    Work absint, sccp, liveness, reachdefs, targets;
    std::uint64_t jsonDigest;
};

TEST(Fixpoint, ResultsMatchRecordedAcrossSeeds)
{
    // Recorded before the solver ran over dense node numbers: any
    // change to the worklist order, the joins or widening moves a
    // step count, and any change to a published state moves the
    // digest of analyzeProgram's report.
    const SeedPin kPins[] = {
        {FoldPolicy::kNone, {47162, 197, 0}, {39074, 168, 0},
         {15498, 0, 0}, {25050, 0, 0}, {23895, 38, 0},
         13595903208361977124ull},
        {FoldPolicy::kCrisp, {43254, 195, 0}, {35531, 162, 0},
         {14292, 0, 0}, {23225, 0, 0}, {21779, 34, 0},
         6396441515611063658ull},
        {FoldPolicy::kAll, {42709, 194, 0}, {35093, 162, 0},
         {14104, 0, 0}, {22683, 0, 0}, {21463, 34, 0},
         13976811542188339706ull},
    };
    for (const SeedPin& want : kPins) {
        SeedPin got{want.policy, {}, {}, {}, {}, {}, 0xcbf29ce484222325ull};
        AnalysisOptions opt;
        opt.policy = want.policy;
        opt.predict = PredictConvention::kNone;
        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
            const Program p = verify::generate(seed).link();
            const Cfg cfg(p, want.policy);
            got.absint.add(interpret(cfg));
            const SccpResult sc = sccp(cfg);
            got.sccp.add(sc.state);
            got.liveness.add(computeLiveness(cfg, sc.state));
            got.reachdefs.add(computeReachDefs(cfg, sc.state));
            got.targets.add(analyzeTargets(cfg, CallGraph(cfg), sc));
            got.jsonDigest =
                fnv1a(got.jsonDigest, analyzeProgram(p, opt).toJson());
        }
        const std::string at =
            "fold " + std::to_string(static_cast<int>(want.policy));
        const auto expect_work = [&](const char* name, const Work& g,
                                     const Work& w) {
            EXPECT_EQ(g.steps, w.steps) << at << " " << name << " steps";
            EXPECT_EQ(g.widenings, w.widenings)
                << at << " " << name << " widenings";
            EXPECT_EQ(g.unconverged, w.unconverged)
                << at << " " << name << " runs that did not converge";
        };
        expect_work("interpret", got.absint, want.absint);
        expect_work("sccp", got.sccp, want.sccp);
        expect_work("computeLiveness", got.liveness, want.liveness);
        expect_work("computeReachDefs", got.reachdefs, want.reachdefs);
        expect_work("analyzeTargets", got.targets, want.targets);
        EXPECT_EQ(got.jsonDigest, want.jsonDigest)
            << at << " analyzeProgram(...).toJson() digest";
    }
}

// ------------------------------------------------------------ widening

TEST(Absint, AcyclicJoinConvergesExactlyWithoutWidening)
{
    // On acyclic code every node's in-state settles in a bounded
    // number of joins — far under the 12-join widening budget — so
    // the join of the two diamond arms is exact: both assign 4, and
    // the accumulator at halt is the proven constant 4.
    const Program p = assemble(R"(
    .entry main
    .local i 0
main:
    enter 1
    mov i, 3
    cmp.s< i, 8
    iftjmpn other
    mov i, 4
    jmp done
other:
    mov i, 4
done:
    mov Accum, i
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    EXPECT_TRUE(ai.converged);
    EXPECT_EQ(ai.widenings, 0);
    const CfgNode* halt = findBody(cfg, Opcode::kHalt);
    ASSERT_NE(halt, nullptr);
    const AbsState& at = ai.in.at(halt->di.pc);
    ASSERT_TRUE(at.reachable);
    EXPECT_EQ(at.accum.constant(), std::optional<std::int32_t>(4));
}

TEST(Absint, LongLoopCrossesJoinBudgetAndWidens)
{
    // One hundred growth joins overrun the 12-join budget: widening
    // must fire, the fixpoint must still converge quickly, and the
    // widened result must stay sound (contain the concrete value).
    const Program p = assemble(R"(
    .entry main
    .local i 0
main:
    enter 1
    mov i, 0
loop:
    add i, 1
    cmp.s< i, 100
    iftjmpy loop
    mov Accum, i
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    const AbsIntResult ai = interpret(cfg);
    EXPECT_TRUE(ai.converged);
    EXPECT_GT(ai.widenings, 0);
    const CfgNode* halt = findBody(cfg, Opcode::kHalt);
    ASSERT_NE(halt, nullptr);
    const AbsState& at = ai.in.at(halt->di.pc);
    ASSERT_TRUE(at.reachable);
    EXPECT_TRUE(at.accum.contains(100));
    EXPECT_FALSE(at.accum.constant().has_value());

    // SCCP widens the same way and stays sound too.
    const SccpResult sc = sccp(cfg);
    EXPECT_TRUE(sc.state.converged);
    EXPECT_TRUE(sc.state.in.at(halt->di.pc).accum.contains(100));
}

TEST(Absint, WidenIntervalJumpsGrowingBoundsOnly)
{
    const Interval stable{0, 5};
    EXPECT_EQ(widenInterval(stable, stable), stable);
    const Interval grown = widenInterval({0, 5}, {0, 6});
    EXPECT_EQ(grown.lo, 0);
    EXPECT_EQ(grown.hi, INT32_MAX);
    const Interval sunk = widenInterval({0, 5}, {-1, 5});
    EXPECT_EQ(sunk.lo, INT32_MIN);
    EXPECT_EQ(sunk.hi, 5);
    // A narrower next state keeps the previous bounds: the widened
    // interval must contain both arguments.
    EXPECT_EQ(widenInterval({0, 5}, {2, 3}), (Interval{0, 5}));
    const Interval mixed = widenInterval({0, 5}, {2, 9});
    EXPECT_EQ(mixed.lo, 0);
    EXPECT_EQ(mixed.hi, INT32_MAX);
}

TEST(Absint, StepCapBailsToTopNotDivergence)
{
    const Program p = assemble(R"(
    .entry main
    .local i 0
main:
    enter 1
    mov i, 0
loop:
    add i, 1
    cmp.s< i, 8
    iftjmpy loop
    mov Accum, i
    halt
)");
    Cfg cfg(p, FoldPolicy::kCrisp);
    AbsIntOptions tiny;
    tiny.stepCap = 3;
    const AbsIntResult ai = interpret(cfg, tiny);
    EXPECT_FALSE(ai.converged);
    const CfgNode* halt = findBody(cfg, Opcode::kHalt);
    ASSERT_NE(halt, nullptr);
    // The bail degrades to all-top: reachable everywhere, nothing
    // proven — sound for every consumer.
    const AbsState& at = ai.in.at(halt->di.pc);
    EXPECT_TRUE(at.reachable);
    EXPECT_TRUE(at.accum.isTop());

    const SccpResult sc = sccp(cfg, tiny);
    EXPECT_FALSE(sc.state.converged);
    EXPECT_TRUE(sc.state.in.at(halt->di.pc).reachable);
}

// ------------------------------------------------- translation validator

TEST(Tv, IdentityRewriteValidates)
{
    const Program p = assemble(R"(
    .global g 0
    .entry main
main:
    enter 1
    mov g, 5
    mov Accum, g
    halt
)");
    const TvReport r = validateRewrite(p, p, {}, {});
    EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
    EXPECT_TRUE(r.semanticChecked);
    EXPECT_EQ(r.instrBefore, r.instrAfter);
}

TEST(Tv, RejectsInstructionGrowth)
{
    const Program before = assemble(R"(
    .entry main
main:
    enter 1
    mov Accum, 5
    halt
)");
    const Program after = assemble(R"(
    .entry main
main:
    enter 1
    mov Accum, 5
    add Accum, 0
    halt
)");
    const TvReport r = validateRewrite(before, after, {}, {});
    EXPECT_FALSE(r.ok);
    ASSERT_FALSE(r.problems.empty());
    EXPECT_NE(r.problems[0].find("instruction count grew"),
              std::string::npos);
}

TEST(Tv, ShrinksDivergenceToNamedGlobal)
{
    const Program before = assemble(R"(
    .global g 0
    .entry main
main:
    enter 1
    mov g, 5
    mov Accum, 1
    halt
)");
    const Program after = assemble(R"(
    .global g 0
    .entry main
main:
    enter 1
    mov g, 6
    mov Accum, 1
    halt
)");
    const TvReport r = validateRewrite(before, after, {}, {});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.counterexample.find("(g)"), std::string::npos)
        << "counterexample should name the diverging global: "
        << r.counterexample;
    EXPECT_NE(r.counterexample.find("expected 5, got 6"),
              std::string::npos)
        << r.counterexample;
}

// ----------------------------------------------------------- optimizer

TEST(Opt, WorkloadsOptimizeVerifiedAndMatchGoldens)
{
    for (const Workload& w : allWorkloads()) {
        const cc::CompileOptions copts;
        const cc::CompileResult base = cc::compile(w.source, copts);
        const OptReport r = optimize(base, copts);
        ASSERT_TRUE(r.applicable) << w.name;
        EXPECT_TRUE(r.tv.ok) << w.name << ": "
                             << (r.tv.problems.empty()
                                     ? ""
                                     : r.tv.problems[0]);
        EXPECT_LE(r.stats.envelopeHiAfter, r.stats.envelopeHiBefore)
            << w.name;
        Interpreter interp(r.result.program);
        ASSERT_TRUE(interp.run(200'000'000).halted) << w.name;
        for (const auto& [sym, val] : w.expectedGlobals)
            EXPECT_EQ(interp.wordAt(sym), val) << w.name << "." << sym;
        if (w.checkAccum) {
            EXPECT_EQ(interp.accum(), w.expectedAccum) << w.name;
        }
    }
}

TEST(Opt, OptimizedWorkloadsSurviveLockstepAndEngineDiff)
{
    for (const Workload& w : allWorkloads()) {
        const cc::CompileOptions copts;
        const OptReport r = optimize(cc::compile(w.source, copts), copts);
        verify::LockstepOptions lo;
        lo.maxSteps = 200'000'000;
        const verify::LockstepReport cycle =
            verify::runLockstep(r.result.program, lo);
        EXPECT_TRUE(cycle.ok()) << w.name << "\n" << cycle.toString();
        const verify::LockstepReport fast =
            verify::runFastLockstep(r.result.program, lo);
        EXPECT_TRUE(fast.ok()) << w.name << "\n" << fast.toString();
    }
}

TEST(Opt, NewWorkloadsActuallyOptimize)
{
    for (const char* name : {"crc8", "quant", "lex"}) {
        const Workload& w = workload(name);
        const cc::CompileOptions copts;
        const OptReport r = optimize(cc::compile(w.source, copts), copts);
        EXPECT_TRUE(r.optimized) << name;
        EXPECT_FALSE(r.tvFallback) << name;
        EXPECT_GE(r.stats.branchesRewritten, 2) << name;
        EXPECT_GT(r.stats.deadRemoved + r.stats.unreachableRemoved, 0)
            << name;
        EXPECT_LT(r.stats.envelopeHiAfter, r.stats.envelopeHiBefore)
            << name << ": a fired pass must shrink the cost envelope";
    }
}

const char* const kTamperSource = R"(
int g;
int out;

int main()
{
    int v, lim;
    v = g & 255;
    lim = 4095;
    out = v + lim;
    if (v > lim)
        out = 0;
    return out;
}
)";

TEST(Opt, TamperedDcePlanIsRejectedWithCounterexample)
{
    const cc::CompileOptions copts;
    const cc::CompileResult base = cc::compile(kTamperSource, copts);

    // Sanity: the untampered pipeline optimizes this program cleanly.
    const OptReport good = optimize(base, copts);
    EXPECT_TRUE(good.tv.ok);

    OptOptions tampered;
    tampered.tamperDce = true;
    const OptReport bad = optimize(base, copts, tampered);
    ASSERT_TRUE(bad.optimized)
        << "the tamper hook must ship its broken rewrite";
    EXPECT_FALSE(bad.tv.ok);
    EXPECT_FALSE(bad.tv.counterexample.empty())
        << "the rejection must carry a shrunk counterexample";
}

TEST(Opt, DelaySlotBuildsAreNotApplicable)
{
    cc::CompileOptions copts;
    copts.delaySlots = true;
    const cc::CompileResult base =
        cc::compile(workload("fig3").source, copts);
    const OptReport r = optimize(base, copts);
    EXPECT_FALSE(r.applicable);
    EXPECT_FALSE(r.optimized);
}

// ---------------------------------------------------------- lint rules

TEST(Lint, DataflowRulesFireAndDiagnosticsAreSorted)
{
    const Program p = assemble(R"(
    .entry main
    .local x 0
    .local b 1
    .local d 2
main:
    enter 3
    mov d, 7
    mov x, 5
    cmp.= x, 6
    add b, 1
    add b, 2
    add b, 3
    iftjmpn error
    mov Accum, x
    halt
error:
    mov Accum, 0
    halt
)");
    const AnalysisResult r = analyzeProgram(p, {});
    EXPECT_TRUE(hasRule(r, "dataflow.dead-store"))
        << "mov d, 7 is never read";
    EXPECT_TRUE(hasRule(r, "dataflow.unreachable-after-constant-branch"))
        << "the error block is cut off by the proven branch";
    for (std::size_t i = 1; i < r.diags.size(); ++i) {
        const Diagnostic& a = r.diags[i - 1];
        const Diagnostic& b = r.diags[i];
        EXPECT_TRUE(a.pc < b.pc || (a.pc == b.pc && a.rule <= b.rule))
            << "diagnostics must sort by (pc, rule) for stable goldens";
    }
}

TEST(Lint, RedundantCopyRuleFires)
{
    const Program p = assemble(R"(
    .entry main
    .local a 0
    .local b 1
main:
    enter 2
    mov b, 9
    mov a, b
    add Accum, 1
    mov a, b
    mov Accum, a
    halt
)");
    const AnalysisResult r = analyzeProgram(p, {});
    EXPECT_TRUE(hasRule(r, "dataflow.redundant-copy"));
}

TEST(Lint, JsonCarriesDataflowCounters)
{
    const AnalysisResult r =
        analyzeProgram(cc::compile(workload("quant").source).program, {});
    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"dataflow\""), std::string::npos);
    EXPECT_NE(json.find("\"sccpProvenDirections\""), std::string::npos);
}

} // namespace
