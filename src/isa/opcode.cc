#include "isa/opcode.hh"

#include "common/logging.hh"

namespace siq
{

int
maxOpcodeLatency()
{
    int m = 1;
    for (const auto &t : detail::traitTable)
        m = m > t.latency ? m : t.latency;
    return m;
}

namespace detail
{

void
opcodeOutOfRange(Opcode op)
{
    panic("opcode out of range: ", static_cast<int>(op));
}

} // namespace detail

} // namespace siq
