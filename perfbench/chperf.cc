/**
 * @file
 * chperf: the measuring program of the sweep benchmark
 * (perfbench/README.md). One invocation runs one workload's sweep
 * through the public SweepRunner/simJob API on a fixed number of worker
 * threads and writes a JSON report of raw measurements and per-job
 * digests; perfbench/run.py turns the report into metrics and checks
 * the digests against the committed references.
 *
 * With --trace 1 the same jobs run through custom SweepRunner::add()
 * bodies that make the calls simJob() makes, each wrapped in an
 * in-memory span, followed by a one-pass layer probe per (workload, ISA)
 * stream. The spans are written to <dir>/spans.jsonl at exit and
 * reduced to the per-layer metrics in the report.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "emu/emulator.h"
#include "runner/metrics.h"
#include "runner/runner.h"
#include "runner/trace_cache.h"
#include "service/store.h"
#include "uarch/core_model.h"
#include "uarch/sampling.h"
#include "uarch/stall_account.h"
#include "workloads/prog_cache.h"
#include "workloads/workloads.h"

namespace fs = std::filesystem;
using namespace ch;

namespace {

/** Instruction cap of the 2M grids and of every probe stream. */
constexpr uint64_t kCap = 2000000;
constexpr int kWidths[] = {4, 6, 8, 12, 16};
constexpr Isa kIsas[] = {Isa::Riscv, Isa::Straight, Isa::Clockhands};
constexpr size_t kGridJobs = 75;
/**
 * Worker threads of every sweep and of the probe. Two gave a noisy sweep
 * time on a 4-vCPU host (README.md, "Workloads").
 */
constexpr int kWorkerThreads = 4;

/** Sampling of sampled-full (and of the probe's sampled pass). */
SamplingConfig
benchSampling()
{
    SamplingConfig sc;
    sc.intervalInsts = 100000;
    sc.sampleInsts = 2000;
    sc.warmupInsts = 2000;
    return sc;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsBetween(int64_t t0, int64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

// ---------------------------------------------------------------------
// Spans

struct Span {
    std::string name;
    int64_t t0 = 0;
    int64_t t1 = 0;
    int parent = -1;
    int thread = 0;
    uint64_t insts = 0;  ///< instructions the wrapped call processed
};

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

/** In-memory span log; null when the run is untraced. */
class Tracer
{
  public:
    int
    open(const char* name, int parent)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.thread = threadIndex();
        s.t0 = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int idx, uint64_t insts)
    {
        const int64_t t1 = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(idx)].t1 = t1;
        spans_[static_cast<size_t>(idx)].insts = insts;
    }

    /** Read after every worker thread has been joined. */
    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
};

Tracer* gTracer = nullptr;
thread_local std::vector<int> tlsOpen;

/** RAII span around one call into a layer; no-op when untraced. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name)
    {
        if (!gTracer)
            return;
        idx_ = gTracer->open(name, tlsOpen.empty() ? -1 : tlsOpen.back());
        tlsOpen.push_back(idx_);
    }

    ~ScopedSpan()
    {
        if (!gTracer)
            return;
        tlsOpen.pop_back();
        gTracer->close(idx_, insts_);
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void setInsts(uint64_t n) { insts_ = n; }

  private:
    int idx_ = -1;
    uint64_t insts_ = 0;
};

/** Trace persistence that records a span around each store call. */
class TracedPersistence : public TracePersistence
{
  public:
    explicit TracedPersistence(service::PersistentStore& store)
        : store_(store)
    {
    }

    std::shared_ptr<const TraceBuffer>
    load(const Program& prog, uint64_t maxInsts) override
    {
        ScopedSpan span("store.trace_load");
        return store_.load(prog, maxInsts);
    }

    void
    save(const Program& prog, uint64_t maxInsts,
         const TraceBuffer& trace) override
    {
        ScopedSpan span("store.trace_save");
        store_.save(prog, maxInsts, trace);
    }

  private:
    service::PersistentStore& store_;
};

// ---------------------------------------------------------------------
// Arguments

struct Args {
    std::string workload;
    std::vector<size_t> order;
    int setupReps = 3;
    int seconds = 20;
    bool trace = false;
    std::string dir;
    std::string out;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "chperf: %s\nusage: chperf --workload "
                 "{detailed-2m|sampled-full|store-cycle|full-reference} "
                 "--order I,J,... --dir DIR --out FILE "
                 "[--setup-reps N] [--seconds S] [--trace 0|1]\n",
                 why.c_str());
    std::exit(2);
}

long
parseLong(const std::string& flag, const char* text, long lo, long hi)
{
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (!*text || *end || errno || v < lo || v > hi)
        usage(flag + " expects an integer in [" + std::to_string(lo) +
              ", " + std::to_string(hi) + "], got '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " expects a value");
        const char* v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--order") {
            std::string s = v;
            size_t pos = 0;
            while (pos <= s.size()) {
                const size_t comma = std::min(s.find(',', pos), s.size());
                a.order.push_back(static_cast<size_t>(parseLong(
                    "--order", s.substr(pos, comma - pos).c_str(), 0,
                    static_cast<long>(kGridJobs) - 1)));
                pos = comma + 1;
            }
        } else if (flag == "--setup-reps") {
            a.setupReps = static_cast<int>(parseLong(flag, v, 1, 20));
        } else if (flag == "--seconds") {
            a.seconds = static_cast<int>(parseLong(flag, v, 0, 600));
        } else if (flag == "--trace") {
            a.trace = parseLong(flag, v, 0, 1) == 1;
        } else if (flag == "--dir") {
            a.dir = v;
        } else if (flag == "--out") {
            a.out = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    static const std::set<std::string> kWorkloads = {
        "detailed-2m", "sampled-full", "store-cycle", "full-reference"};
    if (!kWorkloads.count(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (a.dir.empty() || a.out.empty())
        usage("--dir and --out are required");
    std::vector<size_t> sorted = a.order;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (sorted[i] != i)
            sorted.clear();
    }
    if (sorted.size() != kGridJobs)
        usage("--order must be a permutation of 0.." +
              std::to_string(kGridJobs - 1));
    return a;
}

// ---------------------------------------------------------------------
// Job grids

/**
 * The fig13 grid (5 workloads x 5 widths x 3 ISAs, fig13 order) under
 * one of the job sets named in README.md, submitted in @p order.
 */
std::vector<JobSpec>
grid(const std::string& set, const std::vector<size_t>& order)
{
    std::vector<JobSpec> specs;
    for (const auto& w : workloads()) {
        for (int width : kWidths) {
            for (Isa isa : kIsas) {
                const char* tag = isa == Isa::Riscv      ? "R"
                                  : isa == Isa::Straight ? "S"
                                                         : "C";
                JobSpec spec;
                spec.id = w.name + "/" + tag + "/" +
                          std::to_string(width) + "f";
                spec.workload = w.name;
                spec.isa = isa;
                spec.cfg = MachineConfig::preset(width);
                spec.maxInsts = kCap;
                if (set == "sfull") {
                    spec.cfg.sampling = benchSampling();
                    spec.maxInsts = ~0ull;
                } else if (set == "full") {
                    spec.maxInsts = ~0ull;
                } else if (set == "sc1") {
                    spec.cfg.coreModel = CoreModelKind::Fast;
                } else if (set == "sc2") {
                    // New machine configs on the same streams: half the
                    // L1D, so every result misses the store.
                    spec.cfg.coreModel = CoreModelKind::Fast;
                    spec.cfg.l1dSizeKiB /= 2;
                }
                specs.push_back(std::move(spec));
            }
        }
    }
    std::vector<JobSpec> out;
    for (size_t i : order)
        out.push_back(specs[i]);
    return out;
}

// ---------------------------------------------------------------------
// Digests

struct Row {
    std::string set;
    std::string id;
    bool ok = false;
    bool exited = false;
    int64_t exitCode = 0;
    uint64_t insts = 0;
    uint64_t cycles = 0;
    uint64_t stall = 0;        ///< sum of the six stall categories
    uint64_t stallTarget = 0;  ///< what it must equal (cycles timed)
    double ipc = 0;            ///< sampled estimate when sampled
    double wallMs = 0;
    std::string error;
};

uint64_t
counterOr0(const JobMetrics& m, const std::string& name)
{
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
}

Row
digest(const std::string& set, const JobResult& r)
{
    Row row;
    row.set = set;
    row.id = r.spec.id;
    row.ok = r.ok;
    row.error = r.error;
    row.wallMs = r.metrics.wallMs;
    const JobMetrics& m = r.metrics;
    row.exited = m.exited;
    row.exitCode = m.exitCode;
    row.insts = m.insts;
    row.cycles = m.cycles;
    for (int c = 0; c < kNumStallCats; ++c)
        row.stall += counterOr0(m, stallCatCounterName(c));
    auto ipc = m.values.find("sample.ipc");
    if (ipc != m.values.end()) {
        row.ipc = ipc->second;
        row.stallTarget = counterOr0(m, "sample.cycles.measured");
    } else {
        row.ipc = m.ipc();
        row.stallTarget = m.cycles;
    }
    return row;
}

// ---------------------------------------------------------------------
// Sweeps

/** State shared by the phases of one run. */
struct Run {
    Args args;
    std::unique_ptr<CompiledProgramCache> programs;
    std::shared_ptr<service::PersistentStore> store;
    std::unique_ptr<TracedPersistence> tracedStore;
    std::string storeDir;
    std::vector<Row> rows;
    std::vector<double> setupS;
    std::vector<double> rerunS;

    int64_t measureT0 = 0;  ///< start of the measured part (after setup)
    size_t sweepRows = 0;   ///< rows of the timed sweep (the rest rerun)

    /** Timed windows of the sweep (one per grid; two on store-cycle). */
    std::vector<std::pair<int64_t, int64_t>> sweepWindows;

    // Traced-run bookkeeping (trace-cache and sampling effects).
    uint64_t cacheLookups = 0, cacheHits = 0;
    std::map<std::string, uint64_t> streamBytes, streamInsts;
    uint64_t sampledInsts = 0, sampledTimed = 0;
    std::mutex statsMutex;
};

/** Fill a JobMetrics exactly as simJob() does from a SimResult. */
JobMetrics
packageMetrics(const SimResult& r)
{
    JobMetrics m;
    m.exited = r.exited;
    m.exitCode = r.exitCode;
    m.cycles = r.cycles;
    m.insts = r.insts;
    for (const auto& [name, value] : r.stats.dump())
        m.counters[name] = value;
    if (r.sampled) {
        m.values["sample.ipc"] = r.sample.ipcMean;
        m.values["sample.ipc.stderr"] = r.sample.ipcStderr;
        m.values["sample.ipc.ci95"] = r.sample.ipcCi95;
        m.values["sample.relerr"] = r.sample.relErr();
    }
    return m;
}

/**
 * The traced twin of simJob(): the same public calls in the same order,
 * each inside a span. The trace cache and store are the run's own, so
 * the traced run never reuses state of an earlier sweep.
 */
JobMetrics
tracedSimJob(const JobContext& ctx, TraceCache* traces,
             JobResultStore* store, Run& run)
{
    ScopedSpan job("runner.job");
    const JobSpec& spec = ctx.spec;
    const Program& prog = *ctx.program;
    if (store) {
        JobMetrics cached;
        bool hit = false;
        {
            ScopedSpan span("store.result_load");
            hit = store->load(spec, prog, &cached);
        }
        if (hit)
            return cached;
    }
    if (!traces)
        throw std::runtime_error("traced job without a trace cache");
    std::shared_ptr<const TraceBuffer> trace;
    {
        ScopedSpan span("trace.get");
        trace = traces->get(spec.workload, spec.isa, spec.maxInsts, prog);
    }
    if (!trace)
        throw std::runtime_error("trace cache over budget: " + spec.id);
    SimResult r;
    if (spec.cfg.sampling.enabled()) {
        ScopedSpan span("uarch.sampled");
        r = simulateSampled(*trace, spec.isa, spec.cfg, spec.cfg.sampling);
        span.setInsts(r.insts);
        std::lock_guard<std::mutex> lock(run.statsMutex);
        run.sampledInsts += r.insts;
        run.sampledTimed += r.sample.measuredInsts + r.sample.warmupInsts;
    } else {
        const bool fast = spec.cfg.coreModel == CoreModelKind::Fast;
        ScopedSpan span(fast ? "uarch.fast" : "uarch.detailed");
        std::unique_ptr<CoreModel> core =
            makeCoreModel(spec.cfg, spec.isa);
        r = core->replayResult(*trace);
        span.setInsts(r.insts);
    }
    JobMetrics m = packageMetrics(r);
    if (store) {
        ScopedSpan span("store.result_save");
        store->save(spec, prog, m);
    }
    return m;
}

std::string
streamKey(const JobSpec& s)
{
    return s.workload + "/" + std::to_string(static_cast<int>(s.isa)) +
           "/" + std::to_string(s.maxInsts);
}

/** A sweep's results, handed over after its timed window has closed. */
using Consume = std::function<void(std::span<const JobResult>)>;

struct GridMode {
    bool traceCache = true;
    bool resultStore = false;
    bool tracePersistence = false;
    /** Worker threads; 0 selects kWorkerThreads. Reruns use one. */
    int jobs = 0;
};

/**
 * Run one grid as a sweep, timed from building the SweepRunner to the
 * metrics JSON being written; returns that window and then passes the
 * results, in submission order, to @p consume. Untraced runs use
 * addSim(); traced runs add the capture warm-up list SweepRunner::run()
 * builds for addSim() jobs as explicit capture jobs, then the traced
 * twins of the sim jobs.
 */
std::pair<int64_t, int64_t>
runGrid(Run& run, const std::vector<JobSpec>& specs, GridMode mode,
        const Consume& consume)
{
    const int64_t t0 = nowNs();
    RunnerOptions opt;
    opt.jobs = mode.jobs ? mode.jobs : kWorkerThreads;
    opt.tag = "chperf";
    if (!gTracer) {
        opt.traceCache = mode.traceCache;
        if (mode.resultStore)
            opt.resultStore = run.store;
        if (mode.tracePersistence)
            opt.tracePersistence = run.store;
        SweepRunner runner(opt, run.programs.get());
        for (const JobSpec& s : specs)
            runner.addSim(s);
        const std::vector<JobResult>& results = runner.run();
        metricsJsonString({"chperf", false}, results);
        const int64_t t1 = nowNs();
        consume(results);
        return {t0, t1};
    }

    opt.traceCache = false;
    std::unique_ptr<TraceCache> traces;
    if (mode.traceCache) {
        traces = std::make_unique<TraceCache>(
            TraceCache::defaultBudgetBytes(),
            mode.tracePersistence ? run.tracedStore.get() : nullptr);
    }
    JobResultStore* store = mode.resultStore ? run.store.get() : nullptr;
    SweepRunner runner(opt, run.programs.get());
    std::set<std::string> seen;
    size_t captureJobs = 0;
    if (traces) {
        for (const JobSpec& s : specs) {
            if (!seen.insert(streamKey(s)).second)
                continue;
            JobSpec c;
            c.id = "capture:" + streamKey(s);
            c.workload = s.workload;
            c.isa = s.isa;
            c.maxInsts = s.maxInsts;
            TraceCache* tc = traces.get();
            runner.add(c, [tc, &run](const JobContext& ctx) {
                ScopedSpan job("runner.job");
                std::shared_ptr<const TraceBuffer> t;
                {
                    ScopedSpan span("trace.capture");
                    t = tc->get(ctx.spec.workload, ctx.spec.isa,
                                ctx.spec.maxInsts, *ctx.program);
                    if (t)
                        span.setInsts(t->instCount());
                }
                if (t) {
                    std::lock_guard<std::mutex> lock(run.statsMutex);
                    run.streamBytes[ctx.spec.id] = t->byteSize();
                    run.streamInsts[ctx.spec.id] = t->instCount();
                }
                return JobMetrics{};
            });
            ++captureJobs;
        }
    }
    TraceCache* tc = traces.get();
    for (const JobSpec& s : specs) {
        runner.add(s, [tc, store, &run](const JobContext& ctx) {
            return tracedSimJob(ctx, tc, store, run);
        });
    }
    const std::vector<JobResult>& all = runner.run();
    const std::span<const JobResult> results(all.data() + captureJobs,
                                             all.size() - captureJobs);
    {
        ScopedSpan span("runner.metrics_write");
        metricsJsonString({"chperf", false},
                          {results.begin(), results.end()});
    }
    const int64_t t1 = nowNs();
    for (size_t i = 0; i < captureJobs; ++i) {
        if (!all[i].ok)
            throw std::runtime_error("capture failed: " + all[i].error);
    }
    if (traces) {
        run.cacheLookups += traces->lookupCount();
        run.cacheHits += traces->hitCount();
    }
    consume(results);
    return {t0, t1};
}

/** Consume a sweep by appending its digest rows under @p set. */
Consume
addRows(Run& run, const std::string& set)
{
    return [&run, set](std::span<const JobResult> results) {
        for (const JobResult& r : results)
            run.rows.push_back(digest(set, r));
    };
}

/** Run one grid as (part of) the timed sweep. */
void
sweepGrid(Run& run, const std::string& set, GridMode mode,
          const Consume& consume)
{
    run.sweepWindows.push_back(
        runGrid(run, grid(set, run.args.order), mode, consume));
}

/**
 * Warm reruns served from stored results, on one worker thread: a rerun
 * takes milliseconds, and spawning pool threads onto idle CPUs makes
 * that time follow the host's wake-up latency rather than the store.
 * Untraced, the reruns fill the run out to --seconds (at least a second
 * and three reruns); traced, exactly three run, so the per-layer totals
 * do not scale with the rerun count.
 */
void
rerunPhase(Run& run, const std::vector<std::pair<std::string,
                                                 std::vector<JobSpec>>>&
                         grids,
           GridMode mode)
{
    const int64_t end = std::max(
        run.measureT0 + static_cast<int64_t>(run.args.seconds * 1e9),
        nowNs() + 1000000000);
    for (int n = 0;; ++n) {
        if (n >= 3 && (gTracer || nowNs() >= end))
            break;
        double seconds = 0;
        for (const auto& [set, specs] : grids) {
            const auto [t0, t1] =
                runGrid(run, specs, mode, addRows(run, set));
            seconds += secondsBetween(t0, t1);
        }
        run.rerunS.push_back(seconds);
    }
}

void
runWorkload(Run& run)
{
    const std::string& w = run.args.workload;
    const std::vector<size_t>& order = run.args.order;
    if (w == "full-reference") {
        sweepGrid(run, "full", {}, addRows(run, "full"));
        run.sweepRows = run.rows.size();
    } else if (w == "store-cycle") {
        const GridMode stored{true, true, true};
        sweepGrid(run, "sc1", stored, addRows(run, "sc1"));
        sweepGrid(run, "sc2", stored, addRows(run, "sc2"));
        run.sweepRows = run.rows.size();
        rerunPhase(run,
                   {{"sc1", grid("sc1", order)}, {"sc2", grid("sc2", order)}},
                   {true, true, true, 1});
    } else {
        // Epilogue: persist the results, then rerun the grid from the
        // result store alone (no trace backing, no trace cache).
        const std::string set = w == "detailed-2m" ? "d2m" : "sfull";
        const Consume rows = addRows(run, set);
        sweepGrid(run, set, {}, [&](std::span<const JobResult> results) {
            rows(results);
            for (const JobResult& r : results) {
                if (!r.ok)
                    continue;
                ScopedSpan span("store.result_save");
                run.store->save(r.spec,
                                run.programs->get(r.spec.workload,
                                                  r.spec.isa),
                                r.metrics);
            }
        });
        run.sweepRows = run.rows.size();
        rerunPhase(run, {{set, grid(set, order)}}, {false, true, false, 1});
    }
}

// ---------------------------------------------------------------------
// Setup and probe

/** Compile all 15 programs into a fresh cache and open a fresh store. */
void
setup(Run& run)
{
    for (int rep = 0; rep < run.args.setupReps; ++rep) {
        std::error_code ec;
        fs::remove_all(run.storeDir, ec);
        const int64_t t0 = nowNs();
        auto programs = std::make_unique<CompiledProgramCache>();
        for (const auto& w : workloads()) {
            for (Isa isa : kIsas) {
                ScopedSpan span("workloads.compile");
                programs->get(w.name, isa);
            }
        }
        std::shared_ptr<service::PersistentStore> store;
        {
            ScopedSpan span("store.open");
            store = std::make_shared<service::PersistentStore>(
                run.storeDir);
        }
        run.setupS.push_back(secondsBetween(t0, nowNs()));
        run.programs = std::move(programs);
        run.store = std::move(store);
    }
    run.tracedStore = std::make_unique<TracedPersistence>(*run.store);
}

struct DecodeSink final : TraceSink {
    uint64_t n = 0;

    void onInst(const DynInst&) override { ++n; }
};

struct WarmSink final : TraceSink {
    CoreModel& core;

    explicit WarmSink(CoreModel& c) : core(c) {}

    void onInst(const DynInst& di) override { core.warmInst(di); }
};

/**
 * One pass of every layer over the first kCap instructions of each
 * (workload, ISA) stream: threaded emulation, capture, decode-only
 * replay, detailed, warm-only, fast rung, sampled, store save/load.
 */
void
probe(Run& run)
{
    RunnerOptions opt;
    opt.jobs = kWorkerThreads;
    opt.traceCache = false;
    SweepRunner runner(opt, run.programs.get());
    for (const auto& w : workloads()) {
        for (Isa isa : kIsas) {
            JobSpec spec;
            spec.id = "probe:" + w.name + "/" + std::string(isaName(isa));
            spec.workload = w.name;
            spec.isa = isa;
            spec.maxInsts = kCap;
            runner.add(spec, [&run](const JobContext& ctx) {
                ScopedSpan job("probe.job");
                const Program& prog = *ctx.program;
                const Isa isa = ctx.spec.isa;
                {
                    Emulator emu(prog);
                    ScopedSpan span("emu.run");
                    emu.run(kCap);
                    span.setInsts(emu.instCount());
                }
                TraceBuffer tb;
                {
                    ScopedSpan span("trace.capture");
                    Emulator emu(prog);
                    const RunResult r = emu.run(kCap, &tb);
                    tb.setRunOutcome(r.exited, r.exitCode);
                    span.setInsts(tb.instCount());
                }
                DecodeSink sink;
                {
                    ScopedSpan span("trace.replay");
                    tb.replayTo(sink);
                    span.setInsts(sink.n);
                }
                MachineConfig cfg = MachineConfig::preset(8);
                {
                    auto core = makeCoreModel(cfg, isa);
                    ScopedSpan span("uarch.detailed");
                    span.setInsts(core->replayResult(tb).insts);
                }
                {
                    auto core = makeCoreModel(cfg, isa);
                    WarmSink warm(*core);
                    ScopedSpan span("uarch.warm");
                    tb.replayTo(warm);
                    span.setInsts(tb.instCount());
                }
                {
                    ScopedSpan span("uarch.sampled");
                    const SimResult r =
                        simulateSampled(tb, isa, cfg, benchSampling());
                    span.setInsts(r.insts);
                    std::lock_guard<std::mutex> lock(run.statsMutex);
                    run.sampledInsts += r.insts;
                    run.sampledTimed +=
                        r.sample.measuredInsts + r.sample.warmupInsts;
                }
                cfg.coreModel = CoreModelKind::Fast;
                {
                    auto core = makeCoreModel(cfg, isa);
                    ScopedSpan span("uarch.fast");
                    span.setInsts(core->replayResult(tb).insts);
                }
                run.tracedStore->save(prog, kCap, tb);
                if (!run.tracedStore->load(prog, kCap))
                    throw std::runtime_error("probe trace reload failed");
                if (sink.n != tb.instCount())
                    throw std::runtime_error("probe replay lost records");
                return JobMetrics{};
            });
        }
    }
    for (const JobResult& r : runner.run()) {
        if (!r.ok)
            throw std::runtime_error(r.spec.id + ": " + r.error);
    }
}

// ---------------------------------------------------------------------
// Span reduction

uint64_t
dirBytes(const fs::path& p)
{
    uint64_t n = 0;
    std::error_code ec;
    if (!fs::exists(p, ec))
        return 0;
    for (auto it = fs::recursive_directory_iterator(p, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec)
            break;
        if (it->is_regular_file(ec))
            n += it->file_size(ec);
    }
    return n;
}

double
sweepSeconds(const Run& run)
{
    double s = 0;
    for (const auto& [t0, t1] : run.sweepWindows)
        s += secondsBetween(t0, t1);
    return s;
}

/** Reduce the span log to the per-layer metrics (README.md). */
std::map<std::string, double>
layerMetrics(Run& run, const std::vector<Span>& spans, int64_t probeT0)
{
    const size_t n = spans.size();
    std::vector<int64_t> child(n, 0);
    for (const Span& s : spans) {
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
    }
    std::map<std::string, double> selfMs, durMs, count;
    std::map<std::string, double> probeInsts, probeSec;
    double sweepLayerSelf = 0, sweepJobs = 0;
    for (size_t i = 0; i < n; ++i) {
        const Span& s = spans[i];
        const double dur = static_cast<double>(s.t1 - s.t0);
        const double self = dur - static_cast<double>(child[i]);
        selfMs[s.name] += self * 1e-6;
        durMs[s.name] += dur * 1e-6;
        count[s.name] += 1;
        if (s.t0 >= probeT0) {
            probeInsts[s.name] += static_cast<double>(s.insts);
            probeSec[s.name] += self * 1e-9;
        }
        const bool inSweep = std::any_of(
            run.sweepWindows.begin(), run.sweepWindows.end(),
            [&s](const auto& w) {
                return s.t0 >= w.first && s.t1 <= w.second;
            });
        if (!inSweep)
            continue;
        if (s.name == "runner.job")
            sweepJobs += dur;
        else if (s.name == "runner.metrics_write")
            sweepJobs += dur;  // occupies a worker slot's time
        if (s.name != "runner.job")
            sweepLayerSelf += self;
    }
    const double window = sweepSeconds(run) * 1e9 * kWorkerThreads;
    const double idle = std::max(0.0, window - sweepJobs);
    auto mips = [&](const char* name) {
        return probeSec[name] > 0 ? probeInsts[name] / probeSec[name] * 1e-6
                                  : 0.0;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    uint64_t bytes = 0, insts = 0;
    for (const auto& [k, v] : run.streamBytes) {
        bytes += v;
        insts += run.streamInsts[k];
    }
    const service::PersistentStore& st = *run.store;
    std::map<std::string, double> m;
    m["workloads.compile_ms"] = durMs["workloads.compile"];
    m["workloads.compiles"] = count["workloads.compile"];
    m["emu.mips"] = mips("emu.run");
    m["trace.capture_ms"] = selfMs["trace.capture"];
    m["trace.capture_mips"] = mips("trace.capture");
    m["trace.replay_mips"] = mips("trace.replay");
    m["trace.bytes_per_inst"] =
        ratio(static_cast<double>(bytes), static_cast<double>(insts));
    m["trace.mib"] = static_cast<double>(bytes) / (1 << 20);
    m["runner.capture_wait_ms"] = selfMs["trace.get"];
    m["runner.worker_idle_frac"] = ratio(idle, window);
    m["runner.trace_cache.hit_ratio"] =
        ratio(static_cast<double>(run.cacheHits),
              static_cast<double>(run.cacheLookups));
    m["runner.metrics_write_ms"] = durMs["runner.metrics_write"];
    m["uarch.detailed.self_ms"] = selfMs["uarch.detailed"];
    m["uarch.detailed_mips"] = mips("uarch.detailed");
    m["uarch.sampled.self_ms"] = selfMs["uarch.sampled"];
    m["uarch.warm_mips"] = mips("uarch.warm");
    m["uarch.sampled.timed_frac"] =
        ratio(static_cast<double>(run.sampledTimed),
              static_cast<double>(run.sampledInsts));
    m["uarch.fast.self_ms"] = selfMs["uarch.fast"];
    m["uarch.fast_mips"] = mips("uarch.fast");
    m["store.result_save_ms"] = durMs["store.result_save"];
    m["store.result_load_ms"] = durMs["store.result_load"];
    m["store.trace_save_ms"] = durMs["store.trace_save"];
    m["store.trace_load_ms"] = durMs["store.trace_load"];
    m["store.result_hit_ratio"] =
        ratio(static_cast<double>(st.resultHits()),
              static_cast<double>(st.resultHits() + st.resultMisses()));
    m["store.trace_hit_ratio"] =
        ratio(static_cast<double>(st.traceHits()),
              static_cast<double>(st.traceHits() + st.traceMisses()));
    m["store.result_bytes"] =
        static_cast<double>(dirBytes(fs::path(run.storeDir) / "v1/results"));
    m["store.trace_bytes"] =
        static_cast<double>(dirBytes(fs::path(run.storeDir) / "v1/traces"));
    m["tracing.accounted_frac"] = ratio(sweepLayerSelf + idle, window);
    return m;
}

// ---------------------------------------------------------------------
// Output

std::string
jsonStr(const std::string& s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
numList(const std::vector<double>& v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + num(v[i]);
    return s + "]";
}

void
writeSpans(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream os(path);
    for (const Span& s : spans) {
        os << "{\"name\":" << jsonStr(s.name) << ",\"start_ns\":" << s.t0
           << ",\"end_ns\":" << s.t1 << ",\"parent\":" << s.parent
           << ",\"thread\":" << s.thread << ",\"insts\":" << s.insts
           << "}\n";
    }
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

void
writeReport(const Run& run, const std::map<std::string, double>& layers,
            uint64_t storeBytes)
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    std::ofstream os(run.args.out);
    os << "{\"build_type\":" << jsonStr(CHPERF_BUILD_TYPE)
       << ",\"compiler\":" << jsonStr(CHPERF_CXX_ID)
       << ",\"threads\":" << kWorkerThreads
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"setup_s\":" << numList(run.setupS)
       << ",\"sweep_s\":" << num(sweepSeconds(run))
       << ",\"rerun_s\":" << numList(run.rerunS)
       << ",\"sweep_rows\":" << run.sweepRows
       << ",\"peak_rss_kib\":" << ru.ru_maxrss
       << ",\"store_bytes\":" << storeBytes << ",\"layers\":{";
    bool first = true;
    for (const auto& [k, v] : layers) {
        os << (first ? "" : ",") << jsonStr(k) << ":" << num(v);
        first = false;
    }
    os << "},\"rows\":[";
    for (size_t i = 0; i < run.rows.size(); ++i) {
        const Row& r = run.rows[i];
        os << (i ? ",\n" : "\n") << "[" << jsonStr(r.set) << ","
           << jsonStr(r.id) << "," << (r.ok ? 1 : 0) << ","
           << (r.exited ? 1 : 0) << "," << r.exitCode << "," << r.insts
           << "," << r.cycles << "," << r.stall << "," << r.stallTarget
           << "," << jsonStr(num(r.ipc)) << "," << num(r.wallMs) << ","
           << jsonStr(r.error) << "]";
    }
    os << "]}\n";
    if (!os)
        throw std::runtime_error("cannot write " + run.args.out);
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    const std::string bt = CHPERF_BUILD_TYPE;
    return !CHPERF_SANITIZED && (bt == "Release" || bt == "RelWithDebInfo");
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char** argv)
{
    Run run;
    run.args = parseArgs(argc, argv);
    if (!optimizedBuild()) {
        std::fprintf(stderr,
                     "chperf: refusing to measure a %s build (sanitized=%d);"
                     " configure with -DCMAKE_BUILD_TYPE=Release\n",
                     CHPERF_BUILD_TYPE, CHPERF_SANITIZED);
        return 3;
    }
    try {
        fs::create_directories(run.args.dir);
        run.storeDir = (fs::path(run.args.dir) / "store").string();
        Tracer tracer;
        if (run.args.trace)
            gTracer = &tracer;
        setup(run);
        run.measureT0 = nowNs();
        runWorkload(run);
        std::map<std::string, double> layers;
        const uint64_t storeBytes = dirBytes(run.storeDir);
        if (gTracer) {
            const int64_t probeT0 = nowNs();
            probe(run);
            gTracer = nullptr;
            layers = layerMetrics(run, tracer.spans(), probeT0);
            writeSpans((fs::path(run.args.dir) / "spans.jsonl").string(),
                       tracer.spans());
        }
        writeReport(run, layers, storeBytes);
        std::error_code ec;
        fs::remove_all(run.storeDir, ec);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "chperf: %s\n", e.what());
        return 1;
    }
    return 0;
}
