#include "coherence/mesi.hh"

namespace occsim {

const char *
mesiStateName(MesiState state)
{
    switch (state) {
      case MesiState::Invalid:
        return "I";
      case MesiState::Shared:
        return "S";
      case MesiState::Exclusive:
        return "E";
      case MesiState::Modified:
        return "M";
    }
    return "?";
}

const char *
mesiEventName(MesiEvent event)
{
    switch (event) {
      case MesiEvent::LocalRead:
        return "local-read";
      case MesiEvent::LocalWrite:
        return "local-write";
      case MesiEvent::SnoopRead:
        return "snoop-read";
      case MesiEvent::SnoopReadX:
        return "snoop-readx";
      case MesiEvent::SnoopUpgrade:
        return "snoop-upgrade";
    }
    return "?";
}

} // namespace occsim
