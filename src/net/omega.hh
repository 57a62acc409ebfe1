/**
 * @file
 * Multistage omega network of radix-r crossbar switches — a model of
 * the IBM SP2's Vulcan switch fabric (an indirect, multistage
 * network, unlike the direct mesh/torus of the Paragon/T3D).
 *
 * The network has S = ceil(log_r n) switch stages over N = r^S
 * virtual ports (ports beyond n are unattached padding, which lets
 * any machine size n >= 2 use any radix).  Destination-tag
 * routing: before each stage the wires perform a perfect shuffle
 * (rotate-left of the base-r port digits) and the stage-i switch
 * steers to the i-th base-r digit of the destination, MSB first.
 *
 * Link model: one injection link per node plus the output wire of
 * every switch stage at every port position; the last stage's output
 * wires are the ejection links.  Messages whose routes cross the
 * same wire position at the same stage contend — exactly the
 * blocking behaviour that makes an omega network weaker than a
 * crossbar.
 */

#ifndef CCSIM_NET_OMEGA_HH
#define CCSIM_NET_OMEGA_HH

#include "net/topology.hh"

namespace ccsim::net {

/** Omega multistage interconnection network. */
class Omega : public Topology
{
  public:
    /**
     * @param num_nodes attached nodes (>= 2)
     * @param radix     switch radix (>= 2), e.g.\ 4 for Vulcan-like
     *                  4-way logical switching
     */
    Omega(int num_nodes, int radix);

    int numNodes() const override { return num_nodes_; }
    std::size_t numLinks() const override;
    std::string name() const override;

    /** Number of switch stages. */
    int stages() const { return stages_; }

    /** Virtual port count N = radix^stages (>= numNodes). */
    int ports() const { return ports_; }

    /** Perfect shuffle of a port position (rotate-left, base radix). */
    int shuffle(int w) const;

  protected:
    void startRoute(RouteCursor &cur, int src, int dst) const override;
    LinkId stepRoute(RouteCursor &cur) const override;

  private:
    int num_nodes_;
    int radix_;
    int stages_;
    int ports_;
};

} // namespace ccsim::net

#endif // CCSIM_NET_OMEGA_HH
