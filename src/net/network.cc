#include "net/network.h"

namespace ppc {

// Out-of-line key function so the interface's vtable has a home TU.
Network::~Network() = default;

}  // namespace ppc
