#include "cluster/internode_network.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace ena {

namespace {

/** Mean hop distance between two random positions on a k-ring. */
double
ringAvgHops(int k)
{
    if (k <= 1)
        return 0.0;
    if (k % 2 == 0)
        return k / 4.0;
    return (static_cast<double>(k) * k - 1.0) / (4.0 * k);
}

/** Near-cubic factorization nx*ny*nz == n: nz is the largest divisor
 *  of n at most its cube root, and nx >= ny split the rest. */
void
nearCubicDims(int n, int &nx, int &ny, int &nz)
{
    nz = 1;
    for (int d = 1; static_cast<double>(d) * d * d <= n; ++d) {
        if (n % d == 0)
            nz = d;
    }
    int m = n / nz;
    ny = 1;
    for (int d = 1; static_cast<double>(d) * d <= m; ++d) {
        if (m % d == 0)
            ny = d;
    }
    nx = m / ny;
}

} // anonymous namespace

InterNodeNetwork::InterNodeNetwork(const ClusterConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    switch (cfg_.topology) {
      case ClusterTopology::FatTree:
        buildFatTree();
        break;
      case ClusterTopology::Dragonfly:
        buildDragonfly();
        break;
      case ClusterTopology::Torus3D:
        buildTorus();
        break;
    }
}

void
InterNodeNetwork::buildFatTree()
{
    const double n = cfg_.nodes;
    // Smallest even radix whose three-level Clos holds every node.
    int k = 4;
    while (static_cast<double>(k) * k * k / 4.0 < n)
        k += 2;
    fatTreeRadix_ = k;

    // Three levels: leaf -> pod aggregation -> core. A pod is k/2
    // leaves x k/2 aggs serving (k/2)^2 nodes.
    const double nodes_per_leaf = k / 2.0;
    const double nodes_per_pod = nodes_per_leaf * nodes_per_leaf;
    const double pairs = std::max(n - 1.0, 1.0);
    double f_leaf = std::min(nodes_per_leaf - 1.0, pairs) / pairs;
    double f_pod =
        std::max(std::min(nodes_per_pod, n) - nodes_per_leaf, 0.0) /
        pairs;
    double f_far = std::max(1.0 - f_leaf - f_pod, 0.0);
    avgHops_ = 2.0 * f_leaf + 4.0 * f_pod + 6.0 * f_far;
    diameterHops_ = n > nodes_per_pod ? 6.0
                    : n > nodes_per_leaf ? 4.0
                                         : 2.0;
    // Consecutive ranks share a leaf except across leaf boundaries.
    neighborHops_ = 2.0;

    // The fabric is linksPerNode parallel planes of the same tree; the
    // taper divides every up-link above the leaves.
    bisectionGbs_ = n * cfg_.injectionGbs() / (2.0 * cfg_.fatTreeTaper);

    const double planes = cfg_.linksPerNode;
    const double leaves = std::ceil(n / nodes_per_leaf);
    const double aggs = leaves;   // folded Clos: one agg per leaf
    const double cores = (k / 2.0) * (k / 2.0);
    switches_ =
        static_cast<std::uint64_t>(planes * (leaves + aggs + cores));
    const double uplinks_per_switch = (k / 2.0) / cfg_.fatTreeTaper;
    fabricLinks_ = static_cast<std::uint64_t>(
        planes * (leaves + aggs) * uplinks_per_switch);
}

void
InterNodeNetwork::buildDragonfly()
{
    const double n = cfg_.nodes;
    auto capacity = [](int routers) {
        // Balanced dragonfly: p = h = a/2, g = a*h + 1 groups.
        double p = routers / 2.0;
        double g = routers * p + 1.0;
        return p * routers * g;
    };
    // Smallest even group size whose dragonfly holds every node.
    int a = 2;
    while (capacity(a) < n)
        a += 2;
    dragonflyA_ = a;

    const double p = a / 2.0;             // nodes per router
    const double g = a * p + 1.0;         // groups
    const double pairs = std::max(n - 1.0, 1.0);
    double f_router = std::min(p - 1.0, pairs) / pairs;
    double f_group =
        std::max(std::min(a * p, n) - p, 0.0) / pairs;
    double f_global = std::max(1.0 - f_router - f_group, 0.0);
    // Minimal routing: local hop at each end with prob (a-1)/a, one
    // global hop, plus the two node-to-router links.
    double far_hops = 3.0 + 2.0 * (a - 1.0) / a;
    avgHops_ = 2.0 * f_router + 3.0 * f_group + far_hops * f_global;
    diameterHops_ = n > a * p ? 5.0 : n > p ? 3.0 : 2.0;
    neighborHops_ = 2.0;

    // Every group pair shares exactly one global link (a*h = g - 1), so
    // a half/half split cuts (g/2)^2 of them. Like the fat tree, the
    // fabric is one plane per NIC port, so the cut scales with
    // linksPerNode (the fat tree inherits this via injectionGbs()).
    bisectionGbs_ =
        (g / 2.0) * (g / 2.0) * cfg_.linkGbs * cfg_.linksPerNode;

    switches_ = static_cast<std::uint64_t>(a * g);
    const double local_links = g * a * (a - 1.0) / 2.0;
    const double global_links = g * (g - 1.0) / 2.0;
    fabricLinks_ =
        static_cast<std::uint64_t>(local_links + global_links);
}

void
InterNodeNetwork::buildTorus()
{
    const int n = cfg_.nodes;
    int nx = 0, ny = 0, nz = 0;
    nearCubicDims(n, nx, ny, nz);
    torusX_ = nx;
    torusY_ = ny;
    torusZ_ = nz;

    avgHops_ = ringAvgHops(nx) + ringAvgHops(ny) + ringAvgHops(nz);
    diameterHops_ = nx / 2 + ny / 2 + nz / 2;
    neighborHops_ = 1.0;

    // Cut perpendicular to the largest dimension: the product of the
    // other two dimensions gives the links that cross, twice with a wrap
    // ring. Each of the node's linksPerNode NIC ports contributes its
    // own plane of torus links, matching the per-plane accounting the
    // fat tree bakes into injectionGbs().
    int dims[3] = {nx, ny, nz};
    std::sort(dims, dims + 3);
    const double cut = static_cast<double>(dims[0]) * dims[1];
    bisectionGbs_ = (dims[2] > 2 ? 2.0 : 1.0) * cut * cfg_.linkGbs *
                    cfg_.linksPerNode;

    switches_ = static_cast<std::uint64_t>(n);
    auto dim_links = [n](int k) {
        return k > 2 ? n : k == 2 ? n / 2 : 0;
    };
    fabricLinks_ = static_cast<std::uint64_t>(
        dim_links(nx) + dim_links(ny) + dim_links(nz));
}

double
InterNodeNetwork::deliveredGbs(CommPattern p) const
{
    switch (p) {
      case CommPattern::Halo:
      case CommPattern::Allreduce:
        // Neighbor and ring/tree collectives are injection-limited.
        return injectionGbs();
      case CommPattern::AllToAll:
        // Half of every node's flows cross the bisection each way.
        return std::min(injectionGbs(),
                        2.0 * bisectionGbs_ / cfg_.nodes);
    }
    ENA_FATAL("unknown CommPattern ", static_cast<int>(p));
}

void
InterNodeNetwork::torusDims(int &nx, int &ny, int &nz) const
{
    if (cfg_.topology != ClusterTopology::Torus3D)
        ENA_FATAL("torusDims() on a ", clusterTopologyName(cfg_.topology),
                  " network");
    nx = torusX_;
    ny = torusY_;
    nz = torusZ_;
}

int
InterNodeNetwork::fatTreeRadix() const
{
    if (cfg_.topology != ClusterTopology::FatTree)
        ENA_FATAL("fatTreeRadix() on a ",
                  clusterTopologyName(cfg_.topology), " network");
    return fatTreeRadix_;
}

int
InterNodeNetwork::dragonflyGroupRouters() const
{
    if (cfg_.topology != ClusterTopology::Dragonfly)
        ENA_FATAL("dragonflyGroupRouters() on a ",
                  clusterTopologyName(cfg_.topology), " network");
    return dragonflyA_;
}

Topology
InterNodeNetwork::smallTorusTopology() const
{
    if (cfg_.topology != ClusterTopology::Torus3D)
        ENA_FATAL("smallTorusTopology() needs a 3d-torus, got ",
                  clusterTopologyName(cfg_.topology));
    return Topology::torus3d(torusX_, torusY_, torusZ_);
}

std::string
InterNodeNetwork::describe() const
{
    std::ostringstream os;
    os << cfg_.label() << "\n"
       << "  switches: " << switches_
       << "  fabric links: " << fabricLinks_ << "\n";
    switch (cfg_.topology) {
      case ClusterTopology::FatTree:
        os << "  shape: 3-level fat tree, radix " << fatTreeRadix_
           << ", taper " << cfg_.fatTreeTaper << "\n";
        break;
      case ClusterTopology::Dragonfly:
        os << "  shape: balanced dragonfly, " << dragonflyA_
           << " routers/group\n";
        break;
      case ClusterTopology::Torus3D:
        os << "  shape: " << torusX_ << " x " << torusY_ << " x "
           << torusZ_ << " torus\n";
        break;
    }
    os << "  hops: avg " << avgHops_ << ", diameter " << diameterHops_
       << ", neighbor " << neighborHops_ << "\n"
       << "  bandwidth: injection " << injectionGbs()
       << " GB/s/node, bisection " << bisectionGbs_ << " GB/s\n";
    return os.str();
}

} // namespace ena
