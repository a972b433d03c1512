#include "inputs.hh"

#include <set>

#include "taskgraph/scheduler.hh"
#include "util/rng.hh"
#include "util/string_utils.hh"

namespace perfbench {

using ena::wire::JsonValue;

using ena::Rng;

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index)
{
    Rng r(seed ^ (purpose * 0xd1b54a32d192ed03ull));
    Rng r2(r.next() ^ (index * 0x8cb92ba72f3d8dd7ull));
    return r2.next();
}

namespace {

/** Uniform int in [lo, hi] (ena::Rng::range, narrowed for "%d"). */
int
draw(Rng &r, int lo, int hi)
{
    return static_cast<int>(r.range(lo, hi));
}

/** @p count distinct integers from [lo, hi], ascending. */
std::vector<int>
distinctDraws(Rng &r, int lo, int hi, int count)
{
    std::set<int> picked;
    while (static_cast<int>(picked.size()) < count)
        picked.insert(draw(r, lo, hi));
    return {picked.begin(), picked.end()};
}

/** Integer thousandths as a decimal literal ("0.735"). */
std::string
millis(int m)
{
    return ena::strformat("%d.%03d", m / 1000, m % 1000);
}

const char *const kTopologies[] = {"fat-tree", "dragonfly", "3d-torus"};

/** A node config text drawn from @p r (paper ranges, random opts). */
std::string
nodeText(Rng &r)
{
    std::string t = ena::strformat("ehp.cus = %d\n", draw(r, 192, 384));
    t += "ehp.freq_ghz = " + millis(700 + 5 * draw(r, 0, 160)) + "\n";
    t += "ehp.bw_tbs = " + millis(1000 + 25 * draw(r, 0, 240)) + "\n";
    static const char *const opts[] = {"opts.ntc", "opts.async_cu",
                                       "opts.async_router",
                                       "opts.lp_links",
                                       "opts.compression"};
    for (const char *o : opts) {
        if (draw(r, 0, 3) == 0)
            t += std::string(o) + " = true\n";
    }
    return t;
}

std::string
randomApp(Rng &r)
{
    const auto &apps = ena::allApps();
    return ena::appName(apps[draw(r, 0, static_cast<int>(apps.size()) - 1)]);
}

} // anonymous namespace

std::vector<ena::DseGrid>
dseGrids(std::uint64_t seed)
{
    std::vector<ena::DseGrid> grids;
    grids.push_back(ena::DseGrid::paperGrid());
    for (std::size_t g = 1; g < kDseGrids; ++g) {
        Rng r(streamSeed(seed, 1, g));
        ena::DseGrid grid;
        grid.cus.push_back(192);
        for (int c : distinctDraws(r, 193, 384, 6))
            grid.cus.push_back(c);
        grid.freqsGhz.push_back(0.7);
        for (int k : distinctDraws(r, 141, 300, 9))
            grid.freqsGhz.push_back(k * 5 / 1000.0);
        grid.bwsTbs.push_back(1.0);
        for (int k : distinctDraws(r, 5, 28, 6))
            grid.bwsTbs.push_back(k * 0.25);
        grids.push_back(std::move(grid));
    }
    return grids;
}

std::vector<Fig7Case>
fig7Cases(std::uint64_t seed)
{
    const ena::App apps[] = {ena::App::XSBench, ena::App::SNAP,
                             ena::App::CoMD};
    std::vector<Fig7Case> cases;
    for (int j = 0; j < kFig7ParamSets; ++j) {
        Rng r(streamSeed(seed, 2, j));
        const std::uint64_t sim_seed = 1 + r.next() % 1000000;
        for (ena::App app : apps) {
            Fig7Case c{app, ena::ChipletStudyParams::forApp(app)};
            c.params.seed = sim_seed;
            c.params.domains = 1 + c.params.gpuChiplets;
            cases.push_back(c);
        }
    }
    return cases;
}

const char *
reqKindName(ReqKind k)
{
    switch (k) {
      case ReqKind::EvalNode: return "eval_node";
      case ReqKind::Sweep: return "sweep";
      case ReqKind::TaskGraph: return "taskgraph_eval";
      case ReqKind::Cluster: return "cluster_eval";
      case ReqKind::Malformed: return "malformed";
    }
    return "?";
}

std::vector<std::string>
hotConfigs(std::uint64_t seed)
{
    Rng r(streamSeed(seed, 3));
    std::vector<std::string> hot;
    for (int i = 0; i < kHotSet; ++i)
        hot.push_back(nodeText(r));
    return hot;
}

Request
serverRequest(std::uint64_t seed, std::uint64_t index,
              const std::vector<std::string> &hot)
{
    Rng r(streamSeed(seed, 4, index));
    auto hotText = [&] { return hot[draw(r, 0, kHotSet - 1)]; };
    Request q;
    JsonValue &p = q.params;
    p = JsonValue::object();

    const int u = draw(r, 0, 99);
    if (u < 80) {
        q.kind = ReqKind::EvalNode;
        q.op = "eval_node";
        p.set("app", randomApp(r));
        q.hot = draw(r, 0, 1) == 0;
        p.set("config", q.hot ? hotText() : nodeText(r));
    } else if (u < 88) {
        q.kind = ReqKind::Sweep;
        q.op = "sweep";
        p.set("app", randomApp(r));
        const int axis = draw(r, 0, 2);
        const int n = draw(r, 100, 400);
        double from = 64.0, step = 1.0;
        if (axis == 1) {
            from = 0.5;
            step = 0.002;
        } else if (axis == 2) {
            from = 1.0;
            step = 0.01;
        }
        static const char *const axes[] = {"cus", "freq", "bw"};
        p.set("axis", axes[axis]);
        p.set("from", from);
        p.set("to", from + step * (n - 1));
        p.set("step", step);
        // Sweeps revisit a few base designs, so their points form a
        // working set the shared memo holds within a run.
        p.set("config", hot[draw(r, 0, kSweepBases - 1)]);
    } else if (u < 94) {
        q.kind = ReqKind::TaskGraph;
        q.op = "taskgraph_eval";
        std::string t = hotText();
        t += ena::strformat("cluster.nodes = %d\n", draw(r, 4, 64));
        t += std::string("cluster.topology = ") +
             kTopologies[draw(r, 0, 2)] + "\n";
        t += "taskgraph.shape = random-layered\n";
        t += "taskgraph.app = " + randomApp(r) + "\n";
        t += ena::strformat("taskgraph.size = %d\n", draw(r, 2, 8));
        t += ena::strformat("taskgraph.depth = %d\n", draw(r, 2, 6));
        t += ena::strformat("taskgraph.task_gflops = %d\n",
                            draw(r, 16, 256));
        t += ena::strformat("taskgraph.edge_mb = %d\n", draw(r, 0, 64));
        t += ena::strformat("taskgraph.seed = %d\n", draw(r, 1, 1000000));
        p.set("config", t);
        const auto &scheds = ena::allDagSchedulers();
        p.set("scheduler",
              ena::dagSchedulerName(scheds[index % scheds.size()]));
    } else if (u < 98) {
        q.kind = ReqKind::Cluster;
        q.op = "cluster_eval";
        p.set("app", randomApp(r));
        std::string t = hotText();
        t += ena::strformat("cluster.nodes = %d\n", draw(r, 1000, 200000));
        t += std::string("cluster.topology = ") +
             kTopologies[draw(r, 0, 2)] + "\n";
        p.set("config", t);
    } else {
        q.kind = ReqKind::Malformed;
        q.op = "eval_node";
        p.set("app", "lulesh");
        p.set("config", hotText());
        switch (draw(r, 0, 6)) {
          case 0:
            q.op = "eval_nodes";
            q.expectCode = "not_found";
            break;
          case 1:
            p.set("app", "nosuchapp");
            q.expectCode = "invalid_argument";
            break;
          case 2:
            p.set("config", "ehp.cus = many\n");
            q.expectCode = "parse_error";
            break;
          case 3:
            p.set("config", "ehp.cuz = 320\n");
            q.expectCode = "invalid_argument";
            break;
          case 4:
            q.op = "sweep";
            p.set("axis", "volts");
            p.set("from", 1.0);
            p.set("to", 2.0);
            p.set("step", 0.5);
            q.expectCode = "invalid_argument";
            break;
          case 5:
            p.set("config", "ehp.cus = 0\n");
            q.expectCode = "out_of_range";
            break;
          default:
            q.op = "sweep";
            p.set("axis", "bw");
            p.set("from", 2.0);
            p.set("to", 1.0);
            p.set("step", 0.5);
            q.expectCode = "out_of_range";
            break;
        }
    }
    return q;
}

} // namespace perfbench
