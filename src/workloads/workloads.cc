/**
 * @file
 * Workload sources and their golden values.
 *
 * Every workload is deterministic: inputs are produced by an in-program
 * LCG and nothing is read from outside, so each program's final globals
 * and return value are constants, written out in allWorkloads().
 */

#include "workloads.hh"

namespace crisp
{

namespace
{

// ---------------------------------------------------------------- fig3

const char* kFig3Template = R"(
/* The paper's Figure 3 evaluation program. */
int main()
{
    int i, j, odd, even, sum;
    j = odd = even = 0;
    sum = 0;
    for (i = 0; i < LOOPS; i++) {
        sum = sum + i;
        if (i & 1)
            odd++;
        else
            even++;
        j = sum;
    }
    return j;
}
)";

// --------------------------------------------------------------- troff

const char* kTroff = R"(
/* troff proxy: line/word scanner over LCG-generated text. */
int seed;
int nlines, nwords, nchars, maxline;

int nextc()
{
    seed = seed * 1103515245 + 12345;
    int r = (seed >> 16) & 127;
    if (r < 6)
        return 10;
    if (r < 24)
        return 32;
    return 97 + (r % 26);
}

int main()
{
    int i, c, inword, linelen;
    seed = 42;
    nlines = 0; nwords = 0; nchars = 0; maxline = 0;
    inword = 0;
    linelen = 0;
    for (i = 0; i < 20000; i++) {
        c = nextc();
        nchars++;
        if (c == 10) {
            nlines++;
            if (linelen > maxline)
                maxline = linelen;
            linelen = 0;
            inword = 0;
        } else {
            linelen++;
            if (c == 32) {
                inword = 0;
            } else if (!inword) {
                inword = 1;
                nwords++;
            }
        }
    }
    return nwords;
}
)";

// --------------------------------------------------------------- ccomp

const char* kCcomp = R"(
/* C-compiler proxy: symbol-table driven token processing with long
 * behaviour phases (dynamic predictors should edge out static here). */
int seed;
int symtab[64];
int symcount, lookups, inserts, emitted;

int lookup(int key)
{
    int i;
    for (i = 0; i < symcount; i++) {
        if (symtab[i] == key)
            return i;
    }
    return -1;
}

int main()
{
    int t, k, idx, phase, mask;
    seed = 7;
    symcount = 0; lookups = 0; inserts = 0; emitted = 0;
    for (t = 0; t < 6000; t++) {
        seed = seed * 1103515245 + 12345;
        phase = (t >> 9) & 1;
        if (phase)
            mask = 15;
        else
            mask = 63;
        k = (seed >> 16) & mask;
        if ((t & 3) == 0) {
            idx = lookup(k);
            lookups++;
        } else {
            idx = -1;
        }
        if (idx < 0) {
            if (symcount < 64) {
                symtab[symcount] = k;
                symcount++;
                inserts++;
            }
        } else {
            emitted = emitted + idx;
        }
        if (phase) {
            if (k & 1)
                emitted++;
        } else {
            if (k & 3)
                emitted--;
        }
        if ((seed >> 17) & 1)
            emitted = emitted + 2;
        else
            emitted = emitted - 1;
        if ((seed >> 21) & 1)
            lookups = lookups + 1;
        if (t & 512)
            inserts = inserts + 0;
        else
            emitted = emitted ^ 1;
        if (((t >> 7) & 1) == 0)
            emitted = emitted + 3;
    }
    return emitted;
}
)";

// ----------------------------------------------------------------- drc

const char* kDrc = R"(
/* VLSI design-rule-check proxy: pairwise rectangle overlap tests. */
int xlo[200];
int xhi[200];
int ylo[200];
int yhi[200];
int violations, checks, seed;

int main()
{
    int i, j, n, r;
    seed = 12345;
    n = 200;
    violations = 0;
    checks = 0;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        r = (seed >> 16) & 32767;
        xlo[i] = r % 1000;
        seed = seed * 1103515245 + 12345;
        r = (seed >> 16) & 32767;
        xhi[i] = xlo[i] + 1 + (r % 20);
        seed = seed * 1103515245 + 12345;
        r = (seed >> 16) & 32767;
        ylo[i] = r % 1000;
        seed = seed * 1103515245 + 12345;
        r = (seed >> 16) & 32767;
        yhi[i] = ylo[i] + 1 + (r % 20);
    }
    for (i = 1; i < n; i++) {
        for (j = 0; j < i; j++) {
            checks++;
            if (xlo[i] < xhi[j] && xlo[j] < xhi[i] &&
                ylo[i] < yhi[j] && ylo[j] < yhi[i]) {
                violations++;
            }
        }
    }
    return violations;
}
)";

// ---------------------------------------------------------------- dhry

const char* kDhry = R"(
/* Dhrystone proxy: array shuffles, call chains, a predictable ladder
 * and one strictly alternating condition (the Table 1 signature where
 * static prediction beats one-bit dynamic history). */
int arr1[50];
int arr2[50];
int total;

int intcomp(int a, int b)
{
    if (a > b)
        return a - b;
    return b - a;
}

int func2(int x)
{
    if (x & 1)
        return x * 3 + 1;
    return x / 2;
}

int main()
{
    int run, i, x, y;
    total = 0;
    for (run = 0; run < 300; run++) {
        for (i = 0; i < 50; i++)
            arr1[i] = i + run;
        for (i = 0; i < 50; i++)
            arr2[i] = arr1[i] * 2;
        x = 0;
        y = 0;
        for (i = 0; i < 50; i++) {
            if (arr2[i] > arr1[i])
                x = x + intcomp(arr1[i], arr2[i]);
            if (i & 1)
                y = func2(i);
            else
                y = func2(i + run);
            if ((i >> 1) & 1)
                total++;
            total = total + (x & 7) - (y & 3);
        }
    }
    return total & 65535;
}
)";

// --------------------------------------------------------------- cwhet

const char* kCwhet = R"(
/* Whetstone proxy (integer): arithmetic kernels in nested loops with
 * alternating and every-third-iteration conditions. */
int acc;

int main()
{
    int i, j, t, x;
    acc = 0;
    for (i = 1; i <= 3000; i++) {
        x = i & 1023;
        t = ((x * x) & 4095) - x;
        if (i % 3 == 0)
            acc += t;
        else
            acc -= t >> 1;
        if (i & 1)
            acc ^= x;
        for (j = 0; j < 8; j++)
            t = (t * 3 + 7) & 8191;
        acc += t & 15;
    }
    return acc & 1048575;
}
)";

// -------------------------------------------------------------- puzzle

const char* kPuzzle = R"(
/* Puzzle proxy: N-queens exhaustive backtracking search. */
int colfree[16];
int diag1[32];
int diag2[32];
int solutions, nodes, n;

int place(int row)
{
    int c;
    if (row == n) {
        solutions++;
        return 0;
    }
    for (c = 0; c < n; c++) {
        if (colfree[c] == 0 && diag1[row + c] == 0 &&
            diag2[row - c + n] == 0) {
            colfree[c] = 1;
            diag1[row + c] = 1;
            diag2[row - c + n] = 1;
            nodes++;
            place(row + 1);
            colfree[c] = 0;
            diag1[row + c] = 0;
            diag2[row - c + n] = 0;
        }
    }
    return 0;
}

int main()
{
    n = 8;
    solutions = 0;
    nodes = 0;
    place(0);
    return solutions;
}
)";

// --------------------------------------------------------------- sieve

const char* kSieve = R"(
/* Sieve of Eratosthenes: the classic mid-80s benchmark. */
int flags[4000];
int nprimes, lastprime;

int main()
{
    int i, k, n;
    n = 4000;
    nprimes = 0;
    lastprime = 0;
    for (i = 2; i < n; i++)
        flags[i] = 1;
    for (i = 2; i < n; i++) {
        if (flags[i]) {
            nprimes++;
            lastprime = i;
            for (k = i + i; k < n; k += i)
                flags[k] = 0;
        }
    }
    return nprimes;
}
)";

// ---------------------------------------------------------------- sort

const char* kSort = R"(
/* Bubble sort over LCG data with a verification checksum. */
int data[150];
int swaps, checksum, seed;

int main()
{
    int i, j, t, n;
    n = 150;
    seed = 99;
    swaps = 0;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        data[i] = (seed >> 16) & 1023;
    }
    for (i = 0; i < n - 1; i++) {
        for (j = 0; j < n - 1 - i; j++) {
            if (data[j] > data[j + 1]) {
                t = data[j];
                data[j] = data[j + 1];
                data[j + 1] = t;
                swaps++;
            }
        }
    }
    checksum = 0;
    for (i = 0; i < n; i++)
        checksum = (checksum * 31 + data[i]) & 1048575;
    return checksum;
}
)";

// -------------------------------------------------------------- matmul

const char* kMatmul = R"(
/* 12x12 integer matrix multiply. */
int ma[144];
int mb[144];
int mc[144];
int trace, seed;

int main()
{
    int i, j, k, acc, n;
    n = 12;
    seed = 5;
    for (i = 0; i < n * n; i++) {
        seed = seed * 1103515245 + 12345;
        ma[i] = (seed >> 16) & 63;
        seed = seed * 1103515245 + 12345;
        mb[i] = (seed >> 16) & 63;
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            acc = 0;
            for (k = 0; k < n; k++)
                acc += ma[i * n + k] * mb[k * n + j];
            mc[i * n + j] = acc;
        }
    }
    trace = 0;
    for (i = 0; i < n; i++)
        trace += mc[i * n + i];
    return trace;
}
)";

// ---------------------------------------------------------------- crc8

const char* kCrc8 = R"(
/* CRC-8 (reflected 0x8C) over an LCG byte stream, written in the
 * defensive style the dataflow optimizer targets: every masked value
 * is re-checked against its range, so the guards are provably
 * never-taken and the error counter is provably never written. */
int crc, bad, seed;

int main()
{
    int i, b, k, c, lim, n;
    seed = 7;
    c = 0;
    bad = 0;
    lim = 255;
    n = 96;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        b = (seed >> 16) & 255;
        if (b > lim)
            bad = bad + 1;
        c = c ^ b;
        for (k = 0; k < 8; k++) {
            if (c & 1)
                c = (c >> 1) ^ 140;
            else
                c = c >> 1;
        }
        c = c & 255;
        if (c > lim)
            bad = bad + 3;
    }
    crc = c;
    return crc;
}
)";

// --------------------------------------------------------------- quant

const char* kQuant = R"(
/* Fixed-point quantizer with a correlated clip flag: the clip guard
 * compares a value masked to [0,2047] against a 4095 limit, so the
 * flag stays 0 and the `if (clip)` cascade is unreachable — but only
 * an analysis that prunes the never-taken edge (SCCP) sees it; a
 * plain join over both branch edges still thinks clip may be 1. */
int acc, clips, seed;

int main()
{
    int i, v, q, clip, limit, n, dead;
    seed = 3;
    acc = 0;
    clips = 0;
    limit = 4095;
    n = 80;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        v = (seed >> 16) & 2047;
        clip = 0;
        if (v > limit)
            clip = 1;
        if (clip) {
            clips = clips + 1;
            v = limit;
        }
        q = v >> 4;
        dead = q * 3;
        acc = acc + q;
    }
    return acc & 65535;
}
)";

// ----------------------------------------------------------------- lex

const char* kLex = R"(
/* Call-free token scanner with a compile-time-disabled debug mode:
 * the `debug` flag is a dead constant 0, so its branch is provably
 * never taken, and the range guard on the masked character class is
 * never taken either. */
int ntok, nskip, seed;

int main()
{
    int i, ch, state, debug, n, t;
    seed = 11;
    ntok = 0;
    nskip = 0;
    debug = 0;
    state = 0;
    n = 200;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        ch = (seed >> 16) & 127;
        if (debug)
            nskip = nskip + 1;
        if (ch < 33) {
            state = 0;
        } else {
            if (state == 0)
                ntok = ntok + 1;
            state = 1;
        }
        t = ch;
        if (t > 127)
            nskip = nskip + 5;
    }
    return ntok;
}
)";

// ------------------------------------------------------------- vmtrace

const char* kVmtrace = R"(
/* Byte-coded accumulator VM: the hot loop dispatches through a dense
 * jump table whose value set the target analysis proves exactly, while
 * the trace decoder behind the constant-zero `trace` flag is provably
 * unreachable, so its indirect dispatch carries a vacuous [0,0] delay
 * bound instead of the generic two-cycle indirect charge. */
int acc, steps;

int main()
{
    int pc, op, trace, n;
    acc = 0;
    steps = 0;
    trace = 0;
    n = 96;
    for (pc = 0; pc < n; pc = pc + 1) {
        op = pc - (pc / 4) * 4;
        if (trace) {
            switch (op) {
                case 0: steps = steps + 10; break;
                case 1: steps = steps + 20; break;
                case 2: steps = steps + 30; break;
                default: steps = steps + 40; break;
            }
        }
        switch (op) {
            case 0: acc = acc + 1; break;
            case 1: acc = acc + pc; break;
            case 2: acc = acc - 1; break;
            default: acc = acc + 2; break;
        }
        steps = steps + 1;
    }
    return acc & 65535;
}
)";

// -------------------------------------------------------------- vmmode

const char* kVmmode = R"(
/* Mode-dispatched filter: `mode` is stored once and never written
 * again, so the value-set analysis proves the jump-table slot it
 * selects holds the only reachable target; crispcc -O devirtualizes
 * the dispatch into a direct branch and the per-iteration two-cycle
 * indirect retire charge disappears from the cost envelope. */
int acc, mode;

int main()
{
    int i, n;
    mode = 2;
    acc = 0;
    n = 120;
    for (i = 0; i < n; i = i + 1) {
        switch (mode) {
            case 0: acc = acc + 1; break;
            case 1: acc = acc + 3; break;
            case 2: acc = acc + i; break;
            default: acc = acc - 1; break;
        }
    }
    return acc & 65535;
}
)";

} // namespace

std::string
fig3Source(int loops)
{
    std::string src = kFig3Template;
    const std::string key = "LOOPS";
    const auto at = src.find(key);
    src.replace(at, key.size(), std::to_string(loops));
    return src;
}

Word
fig3Expected(int loops)
{
    UWord sum = 0;
    for (int i = 0; i < loops; ++i)
        sum += static_cast<UWord>(i);
    return static_cast<Word>(sum);
}

const std::vector<Workload>&
allWorkloads()
{
    // The golden values are literals. They were computed by a C++
    // re-implementation of each source (32-bit wraparound arithmetic
    // and logical right shift, as the ISA's evalAlu defines them) that
    // shares no code with crispcc or any engine, and frozen here. A
    // changed source needs its values re-derived the same way, never
    // read back from a binary crispcc built, or the check turns into
    // crispcc compared with itself. The reference evaluator over
    // cc/ast.hh that ROADMAP.md plans (item 6) is meant for that.
    static const std::vector<Workload> workloads = {
        {.name = "fig3",
         .description = "the paper's Figure 3 loop (1024 iterations)",
         .source = fig3Source(1024),
         .expectedGlobals = {},
         .checkAccum = true,
         .expectedAccum = fig3Expected(1024)},
        {.name = "troff",
         .description = "text-processor proxy (skewed branches)",
         .source = kTroff,
         .expectedGlobals = {{"nlines", 965},
                             {"nwords", 3037},
                             {"nchars", 20000},
                             {"maxline", 125}},
         .checkAccum = true,
         .expectedAccum = 3037},
        {.name = "ccomp",
         .description = "C-compiler proxy (phased, irregular branches)",
         .source = kCcomp,
         .expectedGlobals = {{"symcount", 64},
                             {"lookups", 4430},
                             {"inserts", 64},
                             {"emitted", 34685}},
         .checkAccum = true,
         .expectedAccum = 34685},
        {.name = "drc",
         .description = "VLSI design-rule-check proxy (skewed "
                        "comparisons)",
         .source = kDrc,
         .expectedGlobals = {{"violations", 7}, {"checks", 19900}},
         .checkAccum = true,
         .expectedAccum = 7},
        {.name = "dhry",
         .description = "Dhrystone proxy (alternating condition)",
         .source = kDhry,
         .expectedGlobals = {{"total", 43269}},
         .checkAccum = true,
         .expectedAccum = 43269},
        {.name = "cwhet",
         .description = "integer Whetstone proxy",
         .source = kCwhet,
         .expectedGlobals = {{"acc", -2676}},
         .checkAccum = true,
         .expectedAccum = 1045900},
        {.name = "sieve",
         .description = "sieve of Eratosthenes (4000)",
         .source = kSieve,
         .expectedGlobals = {{"nprimes", 550}, {"lastprime", 3989}},
         .checkAccum = true,
         .expectedAccum = 550},
        {.name = "sort",
         .description = "bubble sort, 150 LCG elements",
         .source = kSort,
         .expectedGlobals = {{"swaps", 5513}, {"checksum", 743803}},
         .checkAccum = true,
         .expectedAccum = 743803},
        {.name = "matmul",
         .description = "12x12 integer matrix multiply",
         .source = kMatmul,
         .expectedGlobals = {{"trace", 138818}},
         .checkAccum = true,
         .expectedAccum = 138818},
        {.name = "puzzle",
         .description = "Puzzle proxy: 8-queens backtracking",
         .source = kPuzzle,
         .expectedGlobals = {{"solutions", 92}, {"nodes", 2056}},
         .checkAccum = true,
         .expectedAccum = 92},
        {.name = "crc8",
         .description = "CRC-8 kernel with never-taken range guards",
         .source = kCrc8,
         .expectedGlobals = {{"crc", 68}, {"bad", 0}},
         .checkAccum = true,
         .expectedAccum = 68},
        {.name = "quant",
         .description = "fixed-point quantizer with a correlated clip "
                        "cascade (SCCP-only)",
         .source = kQuant,
         .expectedGlobals = {{"acc", 4626}, {"clips", 0}},
         .checkAccum = true,
         .expectedAccum = 4626},
        {.name = "lex",
         .description = "call-free scanner with a disabled debug mode",
         .source = kLex,
         .expectedGlobals = {{"ntok", 33}, {"nskip", 0}},
         .checkAccum = true,
         .expectedAccum = 33},
        {.name = "vmtrace",
         .description = "byte-coded VM with a live dense dispatch and a "
                        "dead trace decoder",
         .source = kVmtrace,
         .expectedGlobals = {{"acc", 1176}, {"steps", 96}},
         .checkAccum = true,
         .expectedAccum = 1176},
        {.name = "vmmode",
         .description = "mode-dispatched filter whose jump table "
                        "devirtualizes to a direct branch",
         .source = kVmmode,
         .expectedGlobals = {{"acc", 7140}, {"mode", 2}},
         .checkAccum = true,
         .expectedAccum = 7140},
    };
    return workloads;
}

const Workload&
workload(const std::string& name)
{
    for (const Workload& w : allWorkloads()) {
        if (w.name == name)
            return w;
    }
    throw CrispError("unknown workload: " + name);
}

} // namespace crisp
