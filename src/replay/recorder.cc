#include "replay/recorder.hh"

#include <fstream>
#include <utility>

#include "machine/machine.hh"
#include "replay/trace_parser.hh"
#include "util/logging.hh"

namespace ccsim::replay {

Recorder::Recorder(int np)
{
    if (np < 1)
        fatal("Recorder: rank count %d must be positive", np);
    prog_.np = np;
    prog_.ranks.assign(static_cast<std::size_t>(np), {});
    prog_.source = "<recording>";
}

void
Recorder::attach(machine::Machine &m)
{
    if (m.size() != prog_.np)
        fatal("Recorder for %d ranks attached to a %d-node machine",
              prog_.np, m.size());
    m.attachListener(*this);
}

Program
Recorder::take()
{
    Program out = std::move(prog_);
    prog_ = Program{};
    prog_.np = out.np;
    prog_.ranks.assign(static_cast<std::size_t>(out.np), {});
    prog_.source = "<recording>";
    return out;
}

void
Recorder::write(std::ostream &os) const
{
    writeProgram(prog_, os);
}

void
Recorder::writeFile(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        fatal("cannot write trace file '%s'", path.c_str());
    write(f);
}

std::vector<Action> &
Recorder::rankList(int node)
{
    if (node < 0 || node >= prog_.np)
        panic("Recorder: call reported for rank %d of %d", node,
              prog_.np);
    return prog_.ranks[static_cast<std::size_t>(node)];
}

void
Recorder::onCall(const machine::Call &c)
{
    Action a;
    a.kind = c.kind;
    a.duration = c.duration;
    a.peer = c.peer;
    a.peer2 = c.peer2;
    a.tag = c.tag;
    a.tag2 = c.tag2;
    a.bytes = c.bytes;
    a.op = c.op;
    a.algo = c.algo;
    a.root = c.root < 0 ? 0 : c.root;
    if (c.counts) {
        a.vector_variant = true;
        a.counts = *c.counts;
    }
    if (c.group)
        a.group = *c.group;
    rankList(c.node).push_back(std::move(a));
}

void
Recorder::onReset()
{
    for (auto &actions : prog_.ranks)
        actions.clear();
}

} // namespace ccsim::replay
