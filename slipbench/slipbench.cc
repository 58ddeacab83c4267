/**
 * @file
 * slipbench: the harness binary of the slipsim benchmark (README.md).
 *
 *   slipbench --workload stencil|migratory|service --seed N
 *             --seconds S --trace 0|1 --workdir DIR [--spans FILE]
 *
 * Untraced (--trace 0), it sets the workload up several times, then
 * measures it for S seconds and prints the end-to-end metrics.  Traced
 * (--trace 1), it runs the same workload with spans recorded around
 * every call into a layer, interleaved with untraced passes so the
 * tracing overhead is measured in the same process, and prints the
 * per-layer metrics.  Either way every operation's output is checked
 * against a reference or a property the simulator must have, and the
 * last stdout line is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Layers are measured from outside: the harness times the public entry
 * points (CellRun, runSweep, sweepPointJson, the serve protocol) and
 * reads the program's own counters from the stats registry.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "ckpt/cell_run.hh"
#include "core/build_info.hh"
#include "core/cell.hh"
#include "core/config_hash.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "sample/sampled_run.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/logging.hh"

namespace
{

using namespace slipsim;
using Clock = std::chrono::steady_clock;

/** Table 1: the fastest (local, clean) L2 miss takes 170 cycles. */
constexpr double table1LocalMissCycles = 170.0;

/** DESIGN.md §14: sampled replay stays within 2% of the full run. */
constexpr double replayCyclesBound = 0.02;

/** Set-ups per run; setup_s is their median. */
constexpr int setupRepeats = 7;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in (0,1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
            std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// --- host speed --------------------------------------------------------

/**
 * A fixed calibration loop run around every timed call, so that host
 * times can be scaled to one reference speed.  On a shared host the same
 * deterministic cell takes 1.5-2x longer in some minutes than in others.
 * The loop, a dependent walk over a 256 KB ring with a hash step (cache
 * resident and branchy, like the simulator's hot state), slows down with
 * it, though less: across cells the log of a cell's time moves about 1.5
 * times as far as the log of the loop's time.  A time scaled by the
 * loop's slowdown to that power moves far less than the time itself
 * (README.md, "Host speed").
 */
class HostSpeed
{
  public:
    /** The loop's time at the reference speed, in ms: a scaled time
     *  reads as the wall time on a host that runs the loop this fast. */
    static constexpr double referenceMs = 2.5;

    /** Log-log slope of cell time against loop time on the reference
     *  host (fitted per cell: 1.3-1.9). */
    static constexpr double slope = 1.5;

    HostSpeed() : ring(std::size_t(1) << 16)
    {
        std::vector<std::uint32_t> order(ring.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<std::uint32_t>(i);
        std::mt19937 g(7);
        std::shuffle(order.begin() + 1, order.end(), g);
        for (std::size_t i = 0; i < order.size(); ++i)
            ring[order[i]] = order[(i + 1) % order.size()];
    }

    /** Run the loop once; @return its time in ms. */
    double
    probe()
    {
        auto t0 = Clock::now();
        std::uint32_t p = 0;
        std::uint64_t h = 1469598103934665603ULL;
        for (int i = 0; i < 300000; ++i) {
            p = ring[p];
            h = (h ^ p) * 1099511628211ULL;
            if (h & 1)
                h += p;
        }
        sink = sink + h;
        last = msBetween(t0, Clock::now());
        return last;
    }

    struct Timing
    {
        double wallMs;    //!< as measured
        double scaledMs;  //!< at the reference speed
    };

    /** Time @p fn, scaled by the mean of the loop's times just before
     *  and just after it (the probe after one call serves as the probe
     *  before the next). */
    template <typename Fn>
    Timing
    time(Fn &&fn)
    {
        double before = last > 0 ? last : probe();
        auto t0 = Clock::now();
        fn();
        double ms = msBetween(t0, Clock::now());
        double after = probe();
        return {ms, ms * std::pow(referenceMs / (0.5 * (before + after)),
                                  slope)};
    }

  private:
    std::vector<std::uint32_t> ring;
    double last = 0;
    volatile std::uint64_t sink = 0;
};

// --- spans -----------------------------------------------------------

/**
 * In-memory span log.  A span is a named interval with a parent span
 * and a trace id (all spans of one request or one cell share it);
 * self time is derived at the end from the children's intervals.
 * Disabled logs record nothing, so untraced passes pay one branch.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t parent = 0;
        std::uint64_t trace = 0;
        double startMs = 0;
        double endMs = 0;
    };

    explicit SpanLog(bool on) : enabled(on), origin(Clock::now()) {}

    bool on() const { return enabled; }

    double at(Clock::time_point t) const { return msBetween(origin, t); }

    /** Reserve an id for a span whose interval is filled in later, so
     *  children can name it as their parent first. */
    std::uint64_t
    reserve()
    {
        if (!enabled)
            return 0;
        spans.emplace_back();
        return spans.size();
    }

    void
    fill(std::uint64_t id, std::string name, std::uint64_t parent,
         std::uint64_t trace, Clock::time_point a, Clock::time_point b)
    {
        if (!enabled || id == 0)
            return;
        spans[id - 1] = Span{std::move(name), parent, trace, at(a), at(b)};
    }

    std::uint64_t
    record(std::string name, std::uint64_t parent, std::uint64_t trace,
           Clock::time_point a, Clock::time_point b)
    {
        std::uint64_t id = reserve();
        fill(id, std::move(name), parent, trace, a, b);
        return id;
    }

    /** Self time of every span: duration minus the union of its
     *  children's intervals. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
                spans.size());
        for (const Span &s : spans)
            if (s.parent)
                kids[s.parent - 1].emplace_back(s.startMs, s.endMs);
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            auto &k = kids[i];
            std::sort(k.begin(), k.end());
            double covered = 0, lo = 0, hi = -1;
            for (auto [a, b] : k) {
                a = std::max(a, spans[i].startMs);
                b = std::min(b, spans[i].endMs);
                if (a > hi) {
                    if (hi > lo)
                        covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            if (hi > lo)
                covered += hi - lo;
            self[i] = spans[i].endMs - spans[i].startMs - covered;
        }
        return self;
    }

    /** Write every span as one JSON line, then print a per-name
     *  summary (count, mean duration, mean self time). */
    void
    dump(const std::string &path, std::ostream &summary) const
    {
        std::vector<double> self = selfTimes();
        std::ofstream os(path);
        std::map<std::string, std::vector<double>> dur, slf;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "\"id\": %zu, \"parent\": %llu, \"trace\": %llu"
                          ", \"start_ms\": %.4f, \"end_ms\": %.4f"
                          ", \"self_ms\": %.4f}",
                          i + 1,
                          static_cast<unsigned long long>(s.parent),
                          static_cast<unsigned long long>(s.trace),
                          s.startMs, s.endMs, self[i]);
            os << "{\"name\": \"" << s.name << "\", " << buf << "\n";
            dur[s.name].push_back(s.endMs - s.startMs);
            slf[s.name].push_back(self[i]);
        }
        summary << "spans (" << spans.size() << ", written to " << path
                << "):\n";
        for (const auto &[name, d] : dur) {
            char buf[200];
            std::snprintf(buf, sizeof buf,
                          "  %-22s n=%-7zu mean=%9.4f ms  self=%9.4f ms\n",
                          name.c_str(), d.size(), mean(d),
                          mean(slf[name]));
            summary << buf;
        }
    }

  private:
    bool enabled;
    Clock::time_point origin;
    std::vector<Span> spans;
};

// --- results ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Operation accounting: every check failure is one failed operation
 *  and is reported on stderr, never swallowed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    op(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 20)
                std::cerr << "slipbench: FAILED: " << what << "\n";
        }
    }
};

double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

// --- registry counters -----------------------------------------------

bool
endsWith(const std::string &s, const std::string &suf)
{
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/** Sum of every counter whose path ends in @p suffix (per-node and
 *  per-processor paths collapse into one machine-wide count). */
double
sumSuffix(const StatsSnapshot &snap, const std::string &suffix)
{
    double s = 0;
    for (const auto &[path, v] : snap.all())
        if (v.kind == StatsSnapshot::Kind::Counter && endsWith(path, suffix))
            s += static_cast<double>(v.count);
    return s;
}

/** Machine-wide L2 demand-miss latency: (sum, count) over nodes. */
std::pair<double, double>
missLatency(const StatsSnapshot &snap)
{
    double sum = 0, count = 0;
    for (const auto &[path, v] : snap.all()) {
        if (v.kind == StatsSnapshot::Kind::Hist &&
            endsWith(path, ".l2.missLatency")) {
            sum += static_cast<double>(v.hist.total());
            count += static_cast<double>(v.hist.samples());
        }
    }
    return {sum, count};
}

/** Registry counts of a set of simulated cells, summed. */
struct LayerCounts
{
    double cells = 0, events = 0, l1 = 0, busy = 0, stall = 0;
    double l2Hits = 0, l2Misses = 0, dirReq = 0, inval = 0;
    double latSum = 0, latCount = 0, netMsgs = 0, hops = 0;
    double lock = 0, barrier = 0, arsync = 0, recoveries = 0, si = 0;
    double aUseful = 0, aAll = 0, transparent = 0, aReadMisses = 0;

    void
    add(const ExperimentResult &r)
    {
        const StatsSnapshot &s = r.snap;
        cells += 1;
        events += static_cast<double>(s.counter("run.events"));
        l1 += sumSuffix(s, ".l1.hits") + sumSuffix(s, ".l1.misses");
        busy += sumSuffix(s, ".cycles.busy");
        stall += sumSuffix(s, ".cycles.stall");
        l2Hits += sumSuffix(s, ".l2.demandHits");
        l2Misses += sumSuffix(s, ".l2.demandMisses");
        dirReq += sumSuffix(s, ".dir.requests");
        inval += sumSuffix(s, ".dir.invalidationsSent");
        auto [ls, lc] = missLatency(s);
        latSum += ls;
        latCount += lc;
        netMsgs += static_cast<double>(s.counter("net.messages"));
        hops += static_cast<double>(s.counter("net.remoteHops"));
        lock += sumSuffix(s, ".cycles.lock");
        barrier += sumSuffix(s, ".cycles.barrier");
        arsync += sumSuffix(s, ".cycles.arSync");
        recoveries += static_cast<double>(r.recoveries);
        si += static_cast<double>(r.siInvalidated);
        for (const char *cls : {".read.", ".excl."}) {
            std::string c = std::string(".l2.class") + cls;
            double timely = sumSuffix(s, c + "ATimely");
            double late = sumSuffix(s, c + "ALate");
            aUseful += timely + late;
            aAll += timely + late + sumSuffix(s, c + "AOnly");
        }
        transparent += static_cast<double>(r.transparentReplies);
        aReadMisses += static_cast<double>(r.aReadMisses);
    }
};

/** The two per-cell properties every simulated cell must have. */
bool
cellHolds(const ExperimentResult &r, std::string &why)
{
    if (!r.verified) {
        why = "kernel verification failed";
        return false;
    }
    auto [sum, count] = missLatency(r.snap);
    if (count <= 0) {
        why = "no L2 demand misses recorded (caches start empty)";
        return false;
    }
    if (sum / count < table1LocalMissCycles) {
        why = "mean miss latency " + std::to_string(sum / count) +
              " below Table 1's 170-cycle local minimum";
        return false;
    }
    return true;
}

// --- cells -------------------------------------------------------------

/** Canonical config line of a figure-calibrated cell: @p extra holds the
 *  mode/feature keys, the problem size comes from figOptions. */
std::string
figLine(const std::string &wl, int cmps, const std::string &extra,
        bool quick)
{
    Options user;
    if (quick)
        user.set("quick", "true");
    std::ostringstream os;
    os << "workload=" << wl << " cmps=" << cmps;
    if (!extra.empty())
        os << " " << extra;
    const Options sized = figOptions(wl, user);
    for (const auto &[k, v] : sized.all())
        if (k != "quick" && k != "paper")
            os << " " << k << "=" << v;
    return renderCell(cellFromOptions(parseConfigLine(os.str())));
}

SweepPoint
pointOf(const std::string &line)
{
    return cellFromOptions(parseConfigLine(line));
}

/** stencil: the fig05 modes plus slipstream with transparent loads and
 *  self-invalidation, on the four regular-sharing kernels. */
std::vector<std::string>
stencilLines()
{
    std::vector<std::string> lines;
    for (const char *wl : {"mg", "sor", "ocean", "cg"})
        for (int cmps : {2, 4, 8, 16})
            for (const char *extra :
                 {"mode=single", "mode=double", "mode=slipstream",
                  "mode=slipstream transparent-loads=true "
                  "self-invalidation=true"})
                lines.push_back(figLine(wl, cmps, extra, false));
    return lines;
}

/** migratory: lock-protected water-ns and all-to-all fft, both
 *  protocols, at the smallest and largest machine. */
std::vector<std::string>
migratoryLines()
{
    std::vector<std::string> lines;
    for (const char *proto : {"msi", "moesi"})
        for (const char *wl : {"water-ns", "fft"})
            for (int cmps : {2, 16})
                for (const char *mode : {"single", "double", "slipstream"})
                    lines.push_back(figLine(
                            wl, cmps,
                            std::string("mode=") + mode +
                                    " protocol=" + proto,
                            false));
    return lines;
}

// --- instrumented cell execution ---------------------------------------

/** Host time of one traced cell, split at the CellRun boundaries. */
struct CellTimes
{
    double buildMs = 0, simulateMs = 0, finishMs = 0, jsonMs = 0;
    double jsonKb = 0;
};

/**
 * Run one cell through CellRun's public surface (exactly what
 * runExperiment does), recording a span around the constructor,
 * runTo(maxTick), finish() and sweepPointJson().
 */
ExperimentResult
tracedCell(const SweepPoint &pt, SpanLog &log, std::uint64_t trace,
           CellTimes &t)
{
    std::uint64_t cell = log.reserve();
    auto t0 = Clock::now();
    auto run = std::make_unique<CellRun>(pt);
    auto t1 = Clock::now();
    if (!run->runTo(maxTick))
        fatal("cell did not complete: %s", renderCell(pt).c_str());
    auto t2 = Clock::now();
    ExperimentResult r = run->finish();
    auto t3 = Clock::now();
    run.reset();
    auto t4 = Clock::now();
    std::string json = sweepPointJson(r);
    auto t5 = Clock::now();
    log.record("core.cell_build", cell, trace, t0, t1);
    log.record("core.cell_simulate", cell, trace, t1, t2);
    log.record("core.cell_finish", cell, trace, t2, t3);
    log.record("obs.point_json", cell, trace, t4, t5);
    log.fill(cell, "core.cell", 0, trace, t0, t5);
    t.buildMs += msBetween(t0, t1);
    t.simulateMs += msBetween(t1, t2);
    t.finishMs += msBetween(t2, t3);
    t.jsonMs += msBetween(t4, t5);
    t.jsonKb += static_cast<double>(json.size()) / 1024.0;
    return r;
}

/**
 * The simulator-layer metrics: @p c holds the registry counts of one
 * pass over the cells, @p t the host times of @p passes such passes.
 */
void
addCoreMetrics(std::vector<Metric> &m, const CellTimes &t,
               const LayerCounts &c, double passes)
{
    double n = std::max(c.cells * passes, 1.0);
    double simNs = t.simulateMs * 1e6;
    m.push_back({"core.cell_build_ms", t.buildMs / n, "ms"});
    m.push_back({"core.cell_simulate_ms", t.simulateMs / n, "ms"});
    m.push_back({"core.cell_finish_ms", t.finishMs / n, "ms"});
    m.push_back({"sim.events", c.events, "count"});
    m.push_back({"sim.ns_per_event",
                 simNs / std::max(c.events * passes, 1.0), "ns"});
    m.push_back({"cpu.l1_accesses", c.l1, "count"});
    m.push_back({"cpu.ns_per_access", simNs / std::max(c.l1 * passes, 1.0),
                 "ns"});
    m.push_back({"cpu.busy_cycles", c.busy, "cycles"});
    m.push_back({"cpu.stall_cycles", c.stall, "cycles"});
    m.push_back({"mem.l2_demand_hits", c.l2Hits, "count"});
    m.push_back({"mem.l2_demand_misses", c.l2Misses, "count"});
    m.push_back({"mem.dir_requests", c.dirReq, "count"});
    m.push_back({"mem.invalidations", c.inval, "count"});
    m.push_back({"mem.miss_latency_mean_cycles",
                 c.latSum / std::max(c.latCount, 1.0), "cycles"});
    m.push_back({"net.messages", c.netMsgs, "count"});
    m.push_back({"net.remote_hops", c.hops, "count"});
    m.push_back({"runtime.lock_cycles", c.lock, "cycles"});
    m.push_back({"runtime.barrier_cycles", c.barrier, "cycles"});
    m.push_back({"runtime.arsync_cycles", c.arsync, "cycles"});
    m.push_back({"runtime.recoveries", c.recoveries, "count"});
    m.push_back({"runtime.si_invalidated", c.si, "count"});
    m.push_back({"runtime.astream_useful_ratio",
                 c.aUseful / std::max(c.aAll, 1.0), "ratio"});
    m.push_back({"runtime.transparent_ratio",
                 c.transparent / std::max(c.aReadMisses, 1.0), "ratio"});
    m.push_back({"obs.point_json_ms", t.jsonMs / n, "ms"});
    m.push_back({"obs.point_json_kb", t.jsonKb / n, "KB"});
}

// --- the service workload ---------------------------------------------

/** Directory of the figure benches built beside the harness. */
std::string figBinDir = ".";

/**
 * The cell lines figure bench @p bench prints with --quick --csv
 * print-cells=true: the grid scripts/serve_smoke.sh feeds to
 * slipsim_client.
 */
std::vector<std::string>
printedCells(const std::string &bench)
{
    const std::string cmd =
            "'" + figBinDir + "/" + bench + "' --quick --csv print-cells=true";
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        fatal("cannot run %s", cmd.c_str());
    std::vector<std::string> lines;
    std::string line;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, p)) {
        line += buf;
        if (line.back() != '\n')
            continue;
        line.pop_back();
        if (line.find("workload=") != std::string::npos)
            lines.push_back(line);
        line.clear();
    }
    const int rc = ::pclose(p);
    if (rc != 0 || lines.empty())
        fatal("%s printed no cells", cmd.c_str());
    return lines;
}

/** The figure grids of the universe (built by CMakeLists.txt): the one
 *  serve_smoke.sh submits.  Few slices, so each is drawn often enough in
 *  a run for the latency tail, set by the slowest slice, to be steady
 *  (with fig05's nine slices added, request_p99_ms spread by up to 26%
 *  over ten runs). */
const char *const universeFigures[] = {"fig01_double_vs_single"};

/** scripts/serve_smoke.sh's warm-start hint: park the prefix here. */
constexpr Tick warmCheckpointAt = 200;

/**
 * The service's cell universe and its offline references.  Fixed for
 * every seed; the seed only picks the slices that sessions request.
 */
struct Universe
{
    std::vector<std::string> lines;  //!< canonical cell lines
    std::vector<std::string> refs;   //!< expected fragment bytes
    std::vector<bool> replay;        //!< sample=replay cell?
    std::size_t totalBytes = 0;

    /** One kernel's cells of one figure grid, in print order, with the
     *  protocol=moesi and sample=replay variants of its first cell. */
    struct Slice
    {
        std::vector<std::size_t> cells;
        std::size_t moesi = 0, sampled = 0;
    };
    std::vector<Slice> slices;

    double profileS = 0;    //!< sample=profile host time, all plans
    double planKb = 0;      //!< mean plan file size
    double payloadKb = 0;   //!< mean statePayload() of a parked prefix

    LayerCounts counts;
    CellTimes times;
};

/** Universe index of @p line, adding it (unreferenced) if new. */
std::size_t
cellIndex(Universe &u, std::map<std::string, std::size_t> &index,
          const std::string &line, bool replay)
{
    auto [it, added] = index.emplace(line, u.lines.size());
    if (added) {
        u.lines.push_back(line);
        u.replay.push_back(replay);
    }
    return it->second;
}

Universe
buildUniverse(const std::string &planDir, SpanLog &log, Tally &tally)
{
    Universe u;
    std::map<std::string, std::size_t> index;
    for (const char *fig : universeFigures) {
        std::map<std::string, std::size_t> byKernel;
        for (const std::string &printed : printedCells(fig)) {
            const std::size_t i = cellIndex(u, index, printed, false);
            const std::string wl = pointOf(printed).workload;
            auto [it, added] = byKernel.emplace(wl, u.slices.size());
            if (added)
                u.slices.emplace_back();
            u.slices[it->second].cells.push_back(i);
        }
    }
    for (Universe::Slice &s : u.slices)
        s.moesi = cellIndex(
                u, index,
                renderCell(pointOf(u.lines[s.cells[0]] + " protocol=moesi")),
                false);

    // Offline references: every full-fidelity cell simulated straight
    // through, in universe order.
    u.refs.resize(u.lines.size());
    for (std::size_t i = 0; i < u.lines.size(); ++i) {
        SweepPoint pt = pointOf(u.lines[i]);
        ExperimentResult r;
        try {
            if (log.on()) {
                r = tracedCell(pt, log, i + 1, u.times);
            } else {
                r = runExperiment(pt.workload, pt.opts, pt.machine, pt.cfg,
                                  pt.tickLimit);
            }
        } catch (const std::exception &e) {
            // An empty reference: every frame of this cell fails too.
            tally.op(false, u.lines[i] + ": " + e.what());
            continue;
        }
        std::string why;
        tally.op(cellHolds(r, why), u.lines[i] + ": " + why);
        u.counts.add(r);
        u.refs[i] = sweepPointJson(r);
    }

    // Sampled cells: each slice's first cell profiled here (default
    // interval and clusters) into the server's plan directory, as
    // serve_smoke.sh profiles its grid; replay then reconstructs it
    // without simulating.
    std::vector<double> planKb;
    double profileMs = 0;
    for (Universe::Slice &s : u.slices) {
        const std::string &line = u.lines[s.cells[0]];
        const std::string dirKey = " sample-dir=" + planDir;
        std::string replayLine = line + " sample=replay";
        try {
            SweepPoint prof = pointOf(line + " sample=profile" + dirKey);
            auto p0 = Clock::now();
            ExperimentResult full = runCellSampled(prof);
            profileMs += msBetween(p0, Clock::now());
            planKb.push_back(static_cast<double>(std::filesystem::file_size(
                                     samplePlanPath(prof))) /
                             1024.0);
            std::string why;
            tally.op(cellHolds(full, why), line + ": " + why);
            SweepPoint rp = pointOf(replayLine + dirKey);
            ExperimentResult r = runCellSampled(rp);
            double err = std::fabs(static_cast<double>(r.cycles) -
                                   static_cast<double>(full.cycles)) /
                         static_cast<double>(full.cycles);
            tally.op(r.sampled && err <= replayCyclesBound,
                     line + ": replay cycles off by " +
                             std::to_string(100 * err) + "%");
            rp.sampleDir.clear();
            replayLine = renderCell(rp);
            s.sampled = cellIndex(u, index, replayLine, true);
            u.refs.resize(u.lines.size());
            u.refs[s.sampled] = sweepPointJson(r);
        } catch (const std::exception &e) {
            tally.op(false, line + " sampled: " + e.what());
            s.sampled = cellIndex(u, index, replayLine, true);
            u.refs.resize(u.lines.size());
        }
    }
    u.profileS = profileMs / 1000.0;
    u.planKb = mean(planKb);

    // The warm-start prefixes: each slice's first cell parked where the
    // hint parks it.
    std::vector<double> payloadKb;
    for (const Universe::Slice &s : u.slices) {
        CellRun parked(pointOf(u.lines[s.cells[0]]));
        parked.runTo(warmCheckpointAt);
        payloadKb.push_back(
                static_cast<double>(parked.statePayload().size()) / 1024.0);
    }
    u.payloadKb = mean(payloadKb);

    for (const std::string &f : u.refs)
        u.totalBytes += f.size();
    return u;
}

/** Outcome of the closed loop. */
struct LoopResult
{
    // Request and loop times are scaled to the reference host speed,
    // one session at a time.
    std::vector<double> requestMs;  //!< every request
    std::vector<double> gridMs;     //!< each session's first request
    std::uint64_t cells = 0;
    // Per slice: the slice of each request, and each session's time,
    // first-request time and cells, for the slice-weighted figures.
    std::vector<std::size_t> requestSlice;
    std::vector<std::vector<double>> sliceSessionMs, sliceFirstMs;
    std::vector<double> sliceCells;
    double loopMs = 0;
    double wallMs = 0;  //!< the loop's unscaled time
    std::vector<double> firstFrameMs, frameKb;
    std::vector<double> hitMs, missMs, replayMs, warmMs;
    StatsSnapshot before, after;
};

/**
 * One client connection on an in-process server.  A request's spans:
 * "serve.request" parents one "serve.frame.<kind>" span per response
 * frame, each covering the wait since the previous frame.
 */
class Client
{
  public:
    /** A universe cell as submitted, with run-control keys appended
     *  (checkpoint-at, tick-limit) that leave its fragment unchanged. */
    struct Cell
    {
        std::size_t idx;
        std::string hint;
    };

    Client(const Universe &u, SpanLog &log, Tally &tally)
        : u(u), log(&log), tally(tally)
    {}

    /** Record the following requests' spans in @p l. */
    void useLog(SpanLog &l) { log = &l; }

    bool
    connect(const std::string &sock)
    {
        fd = serve::connectUnix(sock);
        return fd >= 0;
    }

    ~Client()
    {
        if (fd >= 0)
            ::close(fd);
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Submit @p cells with @p jobs and check every frame.  @return the
     * request latency in ms, also appended to out.requestMs.
     */
    double
    request(const std::vector<Cell> &cells, int jobs, LoopResult &out)
    {
        std::ostringstream req;
        req << "{\"op\": \"run\", \"jobs\": " << jobs << ", \"cells\": [";
        for (std::size_t k = 0; k < cells.size(); ++k) {
            req << (k ? ", " : "") << "\"" << u.lines[cells[k].idx]
                << cells[k].hint << "\"";
        }
        req << "]}";
        const std::uint64_t trace = ++requests;
        const std::uint64_t span = log->reserve();
        auto t0 = Clock::now();
        const bool sent = serve::writeFrame(fd, req.str());
        bool ok = sent;
        auto prev = Clock::now();
        std::vector<bool> seen(cells.size(), false);
        std::string why = sent ? "" : "send failed";
        std::string payload;
        bool first = true;
        // Read up to the done frame even after a bad one, so the
        // connection stays in step for the next request.
        while (sent) {
            if (serve::readFrame(fd, payload) != serve::FrameStatus::Ok) {
                ok = false;
                why = "connection lost";
                break;
            }
            auto now = Clock::now();
            double gap = msBetween(prev, now);
            if (first)
                out.firstFrameMs.push_back(msBetween(t0, now));
            first = false;
            out.frameKb.push_back(static_cast<double>(payload.size()) /
                                  1024.0);
            if (payload.compare(0, 9, "{\"done\": ") == 0) {
                log->record("serve.frame.done", span, trace, prev, now);
                break;
            }
            std::string kind = checkFrame(payload, cells, seen, why);
            if (kind.empty()) {
                ok = false;
                prev = now;
                continue;
            }
            log->record("serve.frame." + kind, span, trace, prev, now);
            (kind == "hit"      ? out.hitMs
             : kind == "miss"   ? out.missMs
             : kind == "replay" ? out.replayMs
                                : out.warmMs)
                    .push_back(gap);
            prev = now;
        }
        auto t1 = Clock::now();
        log->fill(span, "serve.request", 0, trace, t0, t1);
        if (ok && std::find(seen.begin(), seen.end(), false) != seen.end()) {
            ok = false;
            why = "done before every cell was answered";
        }
        tally.op(ok, "request " + std::to_string(trace) + ": " + why);
        out.cells += cells.size();
        out.requestMs.push_back(msBetween(t0, t1));
        return out.requestMs.back();
    }

  private:
    /** Validate one per-cell frame; @return its kind ("" = bad). */
    std::string
    checkFrame(const std::string &p, const std::vector<Cell> &cells,
               std::vector<bool> &seen, std::string &why)
    {
        static const std::string tag = "\"point\": ";
        std::size_t at = p.find(tag);
        std::size_t cellPos = p.find("\"cell\": ");
        if (at == std::string::npos || cellPos == std::string::npos ||
            p.size() < at + tag.size() + 1) {
            why = "bad frame: " + p.substr(0, 200);
            return "";
        }
        std::size_t k = std::strtoull(p.c_str() + cellPos + 8, nullptr, 10);
        if (k >= cells.size() || seen[k]) {
            why = "bad cell index in frame";
            return "";
        }
        seen[k] = true;
        std::size_t cell = cells[k].idx;
        std::string_view head(p.data(), at);
        std::string_view point(p.data() + at + tag.size(),
                               p.size() - at - tag.size() - 1);
        if (point != u.refs[cell]) {
            why = "fragment differs from the offline reference for " +
                  u.lines[cell] + cells[k].hint;
            return "";
        }
        if (head.find("\"cached\": true") != std::string_view::npos)
            return "hit";
        if (u.replay[cell])
            return "replay";
        if (head.find("\"warm\": true") != std::string_view::npos)
            return "warm";
        return "miss";
    }

    const Universe &u;
    SpanLog *log;
    Tally &tally;
    int fd = -1;
    std::uint64_t requests = 0;
};

/**
 * One client session of scripts/serve_smoke.sh (steps 2-5b) on slice
 * @p s: the slice with jobs=2, the same again (a cache hit), its first
 * cell under protocol=moesi, the warm-start hints on its first two cells
 * (A, B, A, two distinct beyond-completion tick-limits each), the hinted
 * first cell (a hit), and its sample=replay cell twice.  Nine requests;
 * step 4 (two concurrent clients) is left out, as the loop has one
 * connection.
 */
void
session(Client &client, const Universe::Slice &s, std::uint64_t &tickLimit,
        LoopResult &out)
{
    std::vector<Client::Cell> slice;
    for (std::size_t i : s.cells)
        slice.push_back({i, ""});
    out.gridMs.push_back(client.request(slice, 2, out));
    client.request(slice, 2, out);
    client.request({{s.moesi, ""}}, 1, out);
    for (std::size_t i : {s.cells[0], s.cells[1], s.cells[0]}) {
        std::vector<Client::Cell> warm;
        for (int k = 0; k < 2; ++k) {
            warm.push_back({i, " checkpoint-at=" +
                                       std::to_string(warmCheckpointAt) +
                                       " tick-limit=" +
                                       std::to_string(tickLimit++)});
        }
        client.request(warm, 1, out);
    }
    client.request(
            {{s.cells[0], " checkpoint-at=" + std::to_string(warmCheckpointAt)}},
            1, out);
    client.request({{s.sampled, ""}}, 1, out);
    client.request({{s.sampled, ""}}, 1, out);
}

/**
 * Run the closed loop for @p seconds (or exactly @p rounds sessions when
 * nonzero).  Each session takes a slice drawn uniformly with @p seed and
 * is timed by @p speed; its requests are scaled by the session's factor.
 * With @p traced, every second session records its spans in
 * @p tracedLog and its results in *@p traced, so traced and untraced
 * sessions share the same host minutes.
 */
LoopResult
serviceLoop(const Universe &u, serve::Server &srv, const std::string &sock,
            std::uint64_t seed, double seconds, int rounds, HostSpeed &speed,
            SpanLog &log, Tally &tally, LoopResult *traced = nullptr,
            SpanLog *tracedLog = nullptr)
{
    LoopResult untraced;
    Client client(u, log, tally);
    if (!client.connect(sock)) {
        tally.op(false, "cannot connect to " + sock);
        return untraced;
    }
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> pick(0, u.slices.size() - 1);
    // serve_smoke.sh's first tick-limit; every hinted cell gets its own.
    std::uint64_t tickLimit = std::uint64_t(1) << 40;

    untraced.before = srv.statsSnapshot();
    auto t0 = Clock::now();
    for (int round = 0;; ++round) {
        double elapsed = msBetween(t0, Clock::now()) / 1000.0;
        if (rounds ? round >= rounds : (round > 0 && elapsed >= seconds))
            break;
        const bool tr = traced && round % 2 == 1;
        LoopResult &out = tr ? *traced : untraced;
        client.useLog(tr ? *tracedLog : log);
        const std::size_t first = out.requestMs.size();
        const std::size_t k = pick(rng);
        const std::uint64_t cells = out.cells;
        HostSpeed::Timing t = speed.time(
                [&] { session(client, u.slices[k], tickLimit, out); });
        const double factor = t.scaledMs / t.wallMs;
        for (std::size_t i = first; i < out.requestMs.size(); ++i)
            out.requestMs[i] *= factor;
        out.gridMs.back() *= factor;
        out.requestSlice.resize(out.requestMs.size(), k);
        out.sliceSessionMs.resize(u.slices.size());
        out.sliceFirstMs.resize(u.slices.size());
        out.sliceCells.resize(u.slices.size());
        out.sliceSessionMs[k].push_back(t.scaledMs);
        out.sliceFirstMs[k].push_back(out.gridMs.back());
        out.sliceCells[k] += static_cast<double>(out.cells - cells);
        out.loopMs += t.scaledMs;
        out.wallMs += t.wallMs;
    }
    untraced.after = srv.statsSnapshot();
    if (traced) {
        traced->before = untraced.before;
        traced->after = untraced.after;
    }
    return untraced;
}

/** One service set-up: references, plans, server start, warm-up. */
struct Service
{
    Universe u;
    std::unique_ptr<serve::Server> srv;
    std::string sock;
};

std::unique_ptr<Service>
setUpService(const std::string &dir, SpanLog &log, Tally &tally)
{
    auto s = std::make_unique<Service>();
    std::filesystem::create_directories(dir + "/plans");
    s->u = buildUniverse(dir + "/plans", log, tally);
    serve::ServeConfig cfg;
    // A fresh path per set-up: stopping a server unlinks its socket.
    static int serial = 0;
    s->sock = dir + "/serve" + std::to_string(serial++) + ".sock";
    cfg.unixPath = s->sock;
    cfg.workers = 2;
    // Room for twice the largest slice: enough for every hit that
    // serve_smoke.sh asserts within a session (the slice resubmitted,
    // the hinted cell after the warm starts, the replay resubmitted),
    // far less than the universe, so a slice drawn again later is
    // mostly simulated again and evictions recur.  serve_smoke.sh keeps
    // the 256 MiB default, which would hold the whole universe.
    std::size_t largest = 0;
    for (const Universe::Slice &sl : s->u.slices) {
        std::size_t bytes = 0;
        for (std::size_t i : sl.cells)
            bytes += s->u.refs[i].size();
        largest = std::max(largest, bytes);
    }
    cfg.cacheBytes = 2 * largest;
    cfg.ckptSessions = 1;
    cfg.sampleDir = dir + "/plans";
    cfg.gitRev = buildGitRev();
    cfg.buildType = buildTypeName();
    s->srv = std::make_unique<serve::Server>(cfg);
    s->srv->start();
    // Warm-up: one connection answering a ping.
    int fd = serve::connectUnix(s->sock);
    std::string pong;
    bool ok = fd >= 0 && serve::writeFrame(fd, "{\"op\": \"ping\"}") &&
              serve::readFrame(fd, pong) == serve::FrameStatus::Ok &&
              pong.find("\"ok\": true") != std::string::npos;
    if (fd >= 0)
        ::close(fd);
    tally.op(ok, "server did not answer ping");
    return s;
}

// The service's end-to-end figures weight every slice equally, as if
// each had been drawn equally often: the draws decide which slices are
// seen, not how much each counts, so a run's figures do not move with
// the luck of its draws.

/** The figure grids regenerated slice by slice: the sum over slices of
 *  each slice's median first-request time (slices never drawn left
 *  out). */
double
sliceGridMs(const LoopResult &r)
{
    double sum = 0;
    for (const auto &first : r.sliceFirstMs)
        sum += median(first);
    return sum;
}

/** Percentile @p p of request latency, each request weighted by one
 *  over its slice's session count. */
double
slicePercentile(const LoopResult &r, double p)
{
    std::vector<std::pair<double, double>> v;
    double total = 0;
    for (std::size_t i = 0; i < r.requestMs.size(); ++i) {
        const double w =
                1.0 / static_cast<double>(
                              r.sliceSessionMs[r.requestSlice[i]].size());
        v.emplace_back(r.requestMs[i], w);
        total += w;
    }
    std::sort(v.begin(), v.end());
    double cum = 0;
    for (const auto &[ms, w] : v) {
        cum += w;
        if (cum >= p * total)
            return ms;
    }
    return v.empty() ? 0 : v.back().first;
}

/** Cells per second of one session of each slice: the sum over slices
 *  of mean cells per session over the sum of mean session times. */
double
sliceCellsPerS(const LoopResult &r)
{
    double cells = 0, ms = 0;
    for (std::size_t k = 0; k < r.sliceSessionMs.size(); ++k) {
        if (r.sliceSessionMs[k].empty())
            continue;
        cells += r.sliceCells[k] /
                 static_cast<double>(r.sliceSessionMs[k].size());
        ms += mean(r.sliceSessionMs[k]);
    }
    return ms > 0 ? cells / (ms / 1000.0) : 0;
}

double
statDelta(const LoopResult &r, const std::string &path)
{
    return static_cast<double>(r.after.counter(path)) -
           static_cast<double>(r.before.counter(path));
}

void
addServeMetrics(std::vector<Metric> &m, const Universe &u,
                const LoopResult &r)
{
    double hits = statDelta(r, "serve.cache.hits");
    double misses = statDelta(r, "serve.cache.misses");
    m.push_back({"serve.hit_cell_ms", mean(r.hitMs), "ms"});
    m.push_back({"serve.frame_kb", mean(r.frameKb), "KB"});
    m.push_back({"serve.cache_hit_ratio", hits / std::max(hits + misses, 1.0),
                 "ratio"});
    m.push_back({"serve.miss_cell_ms", mean(r.missMs), "ms"});
    m.push_back({"serve.first_frame_ms", mean(r.firstFrameMs), "ms"});
    m.push_back({"serve.cache_evictions",
                 statDelta(r, "serve.cache.evictions"), "count"});
    m.push_back({"sample.replay_cell_ms", mean(r.replayMs), "ms"});
    m.push_back({"sample.profile_s", u.profileS, "s"});
    m.push_back({"sample.plan_kb", u.planKb, "KB"});
    m.push_back({"ckpt.warm_cell_ms", mean(r.warmMs), "ms"});
    m.push_back({"ckpt.forks", statDelta(r, "serve.ckpt.forks"), "count"});
    m.push_back({"ckpt.spawns", statDelta(r, "serve.ckpt.spawns"), "count"});
    m.push_back({"ckpt.payload_kb", u.payloadKb, "KB"});
}

// --- the grid workloads ----------------------------------------------

struct Grid
{
    std::vector<SweepPoint> points;
    std::vector<std::string> lines;
    /** First pass's results: later passes must repeat them exactly. */
    std::vector<ExperimentResult> first;
};

/** Set-up of a grid workload: build the cell list and warm the
 *  simulator up with the smallest single-mode cell of each kernel. */
Grid
setUpGrid(const std::string &workload)
{
    Grid g;
    g.lines = workload == "stencil" ? stencilLines() : migratoryLines();
    std::map<std::string, std::size_t> warm;
    for (const std::string &l : g.lines) {
        g.points.push_back(pointOf(l));
        const SweepPoint &pt = g.points.back();
        if (pt.cfg.mode == Mode::Single && !warm.count(pt.workload))
            warm[pt.workload] = g.points.size() - 1;
    }
    std::vector<SweepPoint> w;
    for (const auto &[wl, i] : warm)
        w.push_back(g.points[i]);
    runSweep(w, SweepConfig{1});
    g.first.resize(g.points.size());
    return g;
}

/** Check one result of a grid cell (first pass: the properties; later
 *  passes also: identical to the first pass). */
void
checkGridCell(Grid &g, std::size_t i, ExperimentResult r, Tally &tally)
{
    std::string why;
    bool ok = cellHolds(r, why);
    if (g.first[i].workload.empty()) {
        g.first[i] = std::move(r);
    } else if (!(r.snap == g.first[i].snap) ||
               r.cycles != g.first[i].cycles) {
        ok = false;
        why = "repeat run differs from the first (nondeterminism)";
    }
    tally.op(ok, g.lines[i] + ": " + why);
}

/** One untraced pass: every cell through the sweep engine with one
 *  worker; @p cellMs gets each cell's time at the reference speed.
 *  @return the pass's wall time in ms. */
double
untracedPass(Grid &g, HostSpeed &speed,
             std::vector<std::vector<double>> &cellMs, Tally &tally)
{
    cellMs.resize(g.points.size());
    double total = 0;
    for (std::size_t i = 0; i < g.points.size(); ++i) {
        std::vector<ExperimentResult> res;
        HostSpeed::Timing t;
        try {
            t = speed.time(
                    [&] { res = runSweep({g.points[i]}, SweepConfig{1}); });
        } catch (const std::exception &e) {
            tally.op(false, g.lines[i] + ": " + e.what());
            continue;
        }
        cellMs[i].push_back(t.scaledMs);
        total += t.wallMs;
        checkGridCell(g, i, std::move(res[0]), tally);
    }
    return total;
}

/** Passes while the time left holds another pass at the last pace. */
bool
roomForPass(Clock::time_point start, double seconds, double lastPassMs,
            int passes, int minPasses)
{
    if (passes < minPasses)
        return true;
    double elapsed = msBetween(start, Clock::now());
    return elapsed + lastPassMs <= seconds * 1000.0;
}

// --- output ------------------------------------------------------------

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("  attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    std::ostringstream os;
    os.precision(10);
    os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".";
    std::string spans = "spans.jsonl";  //!< traced runs write spans here
};

/** Run setupRepeats set-ups and keep the last; @p seconds gets their
 *  median time at the reference speed.  Tearing the previous one down
 *  is not timed. */
template <typename Fn>
auto
timedSetups(Fn &&setUp, HostSpeed &speed, double &seconds)
{
    std::vector<double> s;
    decltype(setUp()) kept;
    for (int i = 0; i < setupRepeats; ++i) {
        decltype(setUp()) fresh;
        s.push_back(speed.time([&] { fresh = setUp(); }).scaledMs / 1000.0);
        kept = std::move(fresh);
    }
    seconds = median(s);
    return kept;
}

int
runGridWorkload(const Args &a)
{
    Tally tally;
    HostSpeed speed;
    double setupS = 0;
    Grid g = timedSetups([&] { return setUpGrid(a.workload); }, speed,
                         setupS);
    std::printf("%s: %zu cells, seed %llu, set-up %.3f s\n",
                a.workload.c_str(), g.points.size(),
                static_cast<unsigned long long>(a.seed), setupS);
    std::vector<Metric> m;
    const auto start = Clock::now();

    if (!a.trace) {
        // A request here is one cell: what a user waits for when one
        // point of a figure is regenerated.
        std::vector<std::vector<double>> cellMs;
        std::vector<double> passMs;
        while (roomForPass(start, a.seconds,
                           passMs.empty() ? 0 : passMs.back(),
                           static_cast<int>(passMs.size()), 1)) {
            passMs.push_back(untracedPass(g, speed, cellMs, tally));
        }
        std::vector<double> perCell;
        for (const auto &c : cellMs)
            if (!c.empty())
                perCell.push_back(median(c));
        double gridMs = 0;
        for (double x : perCell)
            gridMs += x;
        std::printf("%zu passes, wall time per pass (s):", passMs.size());
        for (double x : passMs)
            std::printf(" %.3f", x / 1000.0);
        std::printf("; calibration loop %.3f ms (reference %.1f)\n",
                    speed.probe(), HostSpeed::referenceMs);
        m.push_back({"setup_s", setupS, "s"});
        m.push_back({"grid_s", gridMs / 1000.0, "s"});
        m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        m.push_back({"request_p50_ms", median(perCell), "ms"});
        m.push_back({"request_p99_ms", percentile(perCell, 0.99), "ms"});
        m.push_back({"cells_per_s",
                     static_cast<double>(perCell.size()) / (gridMs / 1000.0),
                     "cells/s"});
        printResult(tally, m);
        return 0;
    }

    // Traced: alternate untraced and traced passes through the same
    // entry point (tracedCell, spans off or on), so the overhead is the
    // span recording alone, measured against the same host minutes.
    SpanLog log(true);
    SpanLog off(false);
    CellTimes times, plainTimes;
    LayerCounts counts;
    std::vector<double> plainMs, tracedMs;
    double last = 0;
    std::uint64_t trace = 0;
    while (roomForPass(start, a.seconds * 0.8, last,
                       static_cast<int>(plainMs.size() + tracedMs.size()),
                       2)) {
        const bool traced = plainMs.size() > tracedMs.size();
        double scaled = 0;
        last = 0;
        for (std::size_t i = 0; i < g.points.size(); ++i) {
            try {
                ExperimentResult r;
                HostSpeed::Timing t = speed.time([&] {
                    r = traced ? tracedCell(g.points[i], log, ++trace, times)
                               : tracedCell(g.points[i], off, 0, plainTimes);
                });
                scaled += t.scaledMs;
                last += t.wallMs;
                if (traced && tracedMs.empty())
                    counts.add(r);
                checkGridCell(g, i, std::move(r), tally);
            } catch (const std::exception &e) {
                tally.op(false, g.lines[i] + ": " + e.what());
            }
        }
        (traced ? tracedMs : plainMs).push_back(scaled);
    }
    // counts hold the first traced pass; times cover every one.
    addCoreMetrics(m, times, counts,
                   static_cast<double>(tracedMs.size()));

    // The service-side layers, on the service's own universe: a fixed
    // four-session probe, so every workload reports every layer.
    {
        auto svc = setUpService(a.workdir + "/probe", off, tally);
        LoopResult r = serviceLoop(svc->u, *svc->srv, svc->sock, a.seed, 0,
                                   4, speed, log, tally);
        addServeMetrics(m, svc->u, r);
    }
    double overhead = (median(tracedMs) - median(plainMs)) /
                      median(plainMs) * 100.0;
    m.push_back({"trace.overhead_pct", overhead, "%"});
    std::printf("%zu untraced + %zu traced passes\n", plainMs.size(),
                tracedMs.size());
    log.dump(a.spans, std::cout);
    printResult(tally, m);
    return 0;
}

int
runServiceWorkload(const Args &a)
{
    Tally tally;
    SpanLog off(false);
    HostSpeed speed;
    // Set-up is timed untraced; the traced pass re-runs the reference
    // computations below with spans.
    double setupS = 0;
    std::unique_ptr<Service> svc = timedSetups(
            [&] { return setUpService(a.workdir + "/service", off, tally); },
            speed, setupS);
    std::printf("service: %zu cells in the universe (%zu sampled), %zu "
                "slices, cache %zu of %zu bytes, seed %llu, set-up %.3f s\n",
                svc->u.lines.size(),
                static_cast<std::size_t>(std::count(svc->u.replay.begin(),
                                                    svc->u.replay.end(),
                                                    true)),
                svc->u.slices.size(), svc->srv->config().cacheBytes, svc->u.totalBytes,
                static_cast<unsigned long long>(a.seed), setupS);
    std::vector<Metric> m;

    if (!a.trace) {
        LoopResult r = serviceLoop(svc->u, *svc->srv, svc->sock, a.seed,
                                   a.seconds, 0, speed, off, tally);
        double hits = statDelta(r, "serve.cache.hits");
        std::printf("%zu requests, %zu sessions, %llu cells, "
                    "cache hit ratio %.3f\n",
                    r.requestMs.size(), r.gridMs.size(),
                    static_cast<unsigned long long>(r.cells),
                    hits / (hits + statDelta(r, "serve.cache.misses")));
        std::printf("loop %.2f s wall, %.2f s scaled; scaled request "
                    "latency deciles (ms):",
                    r.wallMs / 1000.0, r.loopMs / 1000.0);
        for (int d = 1; d < 10; ++d)
            std::printf(" %.2f", percentile(r.requestMs, d / 10.0));
        std::printf("\n");
        // Stop the server first: its checkpoint incubator is reaped only
        // then, and only a reaped child's peak RSS reaches RUSAGE_CHILDREN.
        svc.reset();
        m.push_back({"setup_s", setupS, "s"});
        m.push_back({"grid_s", sliceGridMs(r) / 1000.0, "s"});
        m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        m.push_back({"request_p50_ms", slicePercentile(r, 0.5), "ms"});
        m.push_back({"request_p99_ms", slicePercentile(r, 0.99), "ms"});
        m.push_back({"cells_per_s", sliceCellsPerS(r), "cells/s"});
        printResult(tally, m);
        return 0;
    }

    // Traced: the reference computations with spans (the simulator
    // layers), then the loop with every second session traced.
    SpanLog log(true);
    Universe traced = buildUniverse(a.workdir + "/service/plans", log, tally);
    addCoreMetrics(m, traced.times, traced.counts, 1.0);
    LoopResult tr;
    LoopResult plain = serviceLoop(svc->u, *svc->srv, svc->sock, a.seed,
                                   a.seconds * 0.7, 0, speed, off, tally, &tr,
                                   &log);
    addServeMetrics(m, traced, tr);
    // Time per cell, slice-weighted, so the two kinds of session's
    // different draws do not count as overhead.
    double overhead =
            (sliceCellsPerS(plain) / sliceCellsPerS(tr) - 1.0) * 100.0;
    m.push_back({"trace.overhead_pct", overhead, "%"});
    log.dump(a.spans, std::cout);
    printResult(tally, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--workdir")
            a.workdir = v;
        else if (k == "--spans")
            a.spans = v;
        else {
            std::fprintf(stderr, "slipbench: unknown argument %s\n",
                         k.c_str());
            return 2;
        }
    }
    if (a.seconds <= 0) {
        std::fprintf(stderr, "slipbench: --seconds must be positive\n");
        return 2;
    }
    setQuiet(true);
    figBinDir = std::filesystem::absolute(argv[0]).parent_path().string();
    std::filesystem::create_directories(a.workdir);
    try {
        if (a.workload == "stencil" || a.workload == "migratory")
            return runGridWorkload(a);
        if (a.workload == "service")
            return runServiceWorkload(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "slipbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "slipbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
}
