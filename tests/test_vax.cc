/**
 * @file
 * Tests for the VAX-like Table 2 comparator: machine semantics, the
 * register-based backend, agreement with the CRISP toolchain on the
 * workloads, and the Table 2 histogram itself.
 */

#include <gtest/gtest.h>

#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "vax/vax.hh"
#include "workloads/workloads.hh"

namespace crisp
{
namespace
{

std::int32_t
vaxRet(const std::string& src)
{
    vax::VaxMachine m(vax::compileForVax(src));
    const vax::VaxResult r = m.run(200'000'000);
    EXPECT_TRUE(r.halted);
    return r.returnValue;
}

TEST(Vax, BasicSemantics)
{
    EXPECT_EQ(vaxRet("int main() { return 42; }"), 42);
    EXPECT_EQ(vaxRet("int main() { int a = 6; return a * 7; }"), 42);
    EXPECT_EQ(vaxRet("int main() { int a = 45; return a % 7; }"), 3);
    EXPECT_EQ(vaxRet("int main() { int a = 3; return a << 4; }"), 48);
    EXPECT_EQ(vaxRet("int main() { int a = 48; return a >> 4; }"), 3);
    EXPECT_EQ(vaxRet("int main() { int a = 12; return a & 10; }"), 8);
    EXPECT_EQ(vaxRet("int main() { int a = 5; return -a; }"), -5);
    EXPECT_EQ(vaxRet("int main() { int a = 5; return a > 2 ? 1 : 0; }"),
              1);
}

TEST(Vax, ControlFlowAndCalls)
{
    EXPECT_EQ(vaxRet(R"(
        int fact(int n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
        }
        int main() { return fact(6); }
    )"),
              720);
    EXPECT_EQ(vaxRet(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 10; i++) {
                if (i == 5) continue;
                if (i == 8) break;
                s += i;
            }
            return s;
        }
    )"),
              0 + 1 + 2 + 3 + 4 + 6 + 7);
    EXPECT_EQ(vaxRet(R"(
        int main() {
            int r = 0;
            switch (3) { case 1: r = 1; break; case 3: r = 9; break; }
            return r;
        }
    )"),
              9);
}

TEST(Vax, CallerRegistersSurviveCalls)
{
    // The callee freely uses r2..; CALLS/RET must restore the caller's.
    EXPECT_EQ(vaxRet(R"(
        int clobber(int a, int b) {
            int x = a * 10;
            int y = b * 100;
            return x + y;
        }
        int main() {
            int p = 3;
            int q = 4;
            int r = clobber(1, 2);
            return p * 1000 + q * 100 + (r & 15);
        }
    )"),
              3000 + 400 + ((210) & 15));
}

TEST(Vax, GlobalsAndArrays)
{
    vax::VaxMachine m(vax::compileForVax(R"(
        int g = 5;
        int arr[8];
        int main() {
            for (int i = 0; i < 8; i++) arr[i] = i * i;
            g = arr[3] + arr[7];
            return g;
        }
    )"));
    const vax::VaxResult r = m.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.global("g"), 9 + 49);
}

TEST(Vax, AgreesWithCrispOnWorkloads)
{
    // The two backends compile the same sources; results must agree.
    for (const char* name : {"fig3", "sieve", "cwhet", "matmul"}) {
        const Workload& w = workload(name);
        vax::VaxMachine vm(vax::compileForVax(w.source));
        const vax::VaxResult vr = vm.run(500'000'000);
        ASSERT_TRUE(vr.halted) << name;
        if (w.checkAccum) {
            EXPECT_EQ(vr.returnValue, w.expectedAccum) << name;
        }
        for (const auto& [sym, val] : w.expectedGlobals)
            EXPECT_EQ(vm.global(sym), val) << name << ":" << sym;
    }
}

TEST(Vax, Table2HistogramMatchesPaper)
{
    // The paper's VAX column for the Figure 3 program.
    vax::VaxMachine m(vax::compileForVax(fig3Source(1024)));
    const vax::VaxResult r = m.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.returnValue, fig3Expected(1024));

    EXPECT_EQ(r.count(vax::VOp::kIncl), 2048u);
    EXPECT_EQ(r.count(vax::VOp::kJbr), 1536u);
    EXPECT_EQ(r.count(vax::VOp::kCmpl), 1025u);
    EXPECT_EQ(r.count(vax::VOp::kJgeq), 1025u);
    EXPECT_EQ(r.count(vax::VOp::kAddl2), 1024u);
    EXPECT_EQ(r.count(vax::VOp::kBitl), 1024u);
    EXPECT_EQ(r.count(vax::VOp::kJeql), 1024u);
    EXPECT_NEAR(static_cast<double>(r.count(vax::VOp::kMovl)), 1026.0,
                2.0);
    // Totals essentially identical, as the paper says (9,734 vs 9,736).
    EXPECT_NEAR(static_cast<double>(r.instructions), 9736.0, 6.0);
}

TEST(Vax, RegisterPressureIsDiagnosed)
{
    std::string src = "int main() { int a0=0";
    for (int i = 1; i < 12; ++i)
        src += ", a" + std::to_string(i) + "=0";
    src += "; return a0; }";
    EXPECT_THROW(vax::compileForVax(src), CrispError);
}

TEST(Vax, Errors)
{
    EXPECT_THROW(vax::compileForVax("int f() { return 0; }"),
                 CrispError); // no main
    EXPECT_THROW(vax::compileForVax("int main() { return x; }"),
                 CrispError);
    vax::VaxMachine m(vax::compileForVax("int main() { return 1; }"));
    m.run();
    EXPECT_THROW(m.global("nope"), CrispError);
}

TEST(Vax, StepLimit)
{
    vax::VaxMachine m(
        vax::compileForVax("int main() { while (1) ; return 0; }"));
    const vax::VaxResult r = m.run(1000);
    EXPECT_FALSE(r.halted);
}

} // namespace
} // namespace crisp
