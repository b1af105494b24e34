/**
 * @file
 * Host-side microbenchmarks (google-benchmark): throughput of the
 * simulator stack itself — useful when using crispsim as a library.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "analysis/checks.hh"
#include "asm/assembler.hh"
#include "baseline/delayed.hh"
#include "isa/objfile.hh"
#include "predict/predictors.hh"
#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "sim/cpu.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace crisp;

void
BM_Compile(benchmark::State& state)
{
    const std::string src = workload("dhry").source;
    for (auto _ : state) {
        auto r = cc::compile(src);
        benchmark::DoNotOptimize(r.program.text.data());
    }
}
BENCHMARK(BM_Compile);

void
BM_Assemble(benchmark::State& state)
{
    const std::string src = R"(
        .entry start
        .global g 0
start:  mov g, 5
loop:   sub g, 1
        cmp.s> g, 0
        iftjmpy loop
        halt
    )";
    for (auto _ : state) {
        Program p = assemble(src);
        benchmark::DoNotOptimize(p.text.data());
    }
}
BENCHMARK(BM_Assemble);

void
BM_InterpreterMips(benchmark::State& state)
{
    const auto r = cc::compile(fig3Source(1024));
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        Interpreter interp(r.program);
        const InterpResult res = interp.run();
        instructions += res.instructions;
    }
    state.counters["guest_instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterMips);

void
BM_PipelineCyclesPerSec(benchmark::State& state)
{
    const auto r = cc::compile(fig3Source(1024));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        CrispCpu cpu(r.program);
        cycles += cpu.run().cycles;
    }
    state.counters["guest_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineCyclesPerSec);

void
BM_DecodeFold(benchmark::State& state)
{
    std::vector<Parcel> window;
    encodeAppend(Instruction::alu(Opcode::kAdd, Operand::stack(0),
                                  Operand::imm(1)),
                 window);
    encodeAppend(Instruction::branchRel(Opcode::kJmp, 0x40), window);
    FoldDecoder dec(FoldPolicy::kCrisp);
    for (auto _ : state) {
        auto di = dec.decodeAt(0x1000, window, true);
        benchmark::DoNotOptimize(di);
    }
}
BENCHMARK(BM_DecodeFold);


void
BM_PipelineWorkloadDhry(benchmark::State& state)
{
    const auto r = cc::compile(workload("dhry").source);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        CrispCpu cpu(r.program);
        cycles += cpu.run().cycles;
    }
    state.counters["guest_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineWorkloadDhry);

void
BM_DelayedMachine(benchmark::State& state)
{
    cc::CompileOptions opts;
    opts.delaySlots = true;
    const auto r = cc::compile(fig3Source(1024), opts);
    for (auto _ : state) {
        DelayedBranchCpu cpu(r.program);
        benchmark::DoNotOptimize(cpu.run().cycles);
    }
}
BENCHMARK(BM_DelayedMachine);

void
BM_PredictorEvaluation(benchmark::State& state)
{
    const auto r = cc::compile(workload("cwhet").source);
    Interpreter interp(r.program);
    BranchTraceRecorder rec;
    interp.run(500'000'000, &rec);
    for (auto _ : state) {
        CounterPredictor p(2);
        benchmark::DoNotOptimize(
            evaluateDirection(rec.events, p).correct);
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(rec.events.size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredictorEvaluation);

void
BM_ObjectRoundTrip(benchmark::State& state)
{
    const auto r = cc::compile(workload("dhry").source);
    for (auto _ : state) {
        const auto bytes = saveObject(r.program);
        Program back = loadObject(bytes);
        benchmark::DoNotOptimize(back.text.data());
    }
}
BENCHMARK(BM_ObjectRoundTrip);

/** The full static analysis crisplint runs, per issue point (ROADMAP
 *  item 1's target is at most 50 µs on every workload). */
void
BM_AnalyzeProgram(benchmark::State& state, const std::string& name)
{
    const Program prog = cc::compile(workload(name).source).program;
    double points = 0;
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        const analysis::AnalysisResult r = analysis::analyzeProgram(prog);
        points = static_cast<double>(r.cfg->nodes().size());
        benchmark::DoNotOptimize(r.diags.data());
    }
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - start;
    state.counters["us_per_issue_point"] =
        us.count() / (points * static_cast<double>(state.iterations()));
}

const bool kAnalyzeProgramRegistered = [] {
    for (const Workload& w : allWorkloads()) {
        benchmark::RegisterBenchmark(
            ("BM_AnalyzeProgram/" + w.name).c_str(), BM_AnalyzeProgram,
            w.name);
    }
    return true;
}();

} // namespace

BENCHMARK_MAIN();
