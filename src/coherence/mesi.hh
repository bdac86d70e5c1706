/**
 * @file
 * The MESI state machine, as a pure transition table.
 *
 * Every cached block of a coherent scenario is in exactly one of the
 * four MESI states per core: Modified (this core's copy is the only
 * one and is dirty), Exclusive (only copy, clean), Shared (one of
 * possibly several clean copies), Invalid (not cached). The table
 * here is the protocol's whole truth — the coherent engine
 * (coherent_system.cc) and its naive flat-snooping oracle
 * (check/coherence_check.cc) both drive their per-frame states
 * through mesiNext(), so a protocol disagreement between them can
 * only come from *when* they raise events, never from what an event
 * does.
 *
 * Illegal transitions panic instead of returning: an Invalid line
 * being snooped means the bus filter is broken (only holders are
 * snooped), and a Modified or Exclusive line observing a peer's
 * upgrade means two cores thought they owned the block — both are
 * simulator bugs, not workload behaviors, and the state-machine unit
 * tests pin each one as a death test.
 */

#ifndef OCCSIM_COHERENCE_MESI_HH
#define OCCSIM_COHERENCE_MESI_HH

#include <cstdint>

#include "util/logging.hh"

namespace occsim {

/** Per-core state of one cached block. */
enum class MesiState : std::uint8_t {
    Invalid = 0,
    Shared = 1,
    Exclusive = 2,
    Modified = 3,
};

const char *mesiStateName(MesiState state);

/** Inputs to the per-block state machine. Local* events come from
 *  this core's own references; Snoop* events are observed on the bus
 *  from a peer's transaction. */
enum class MesiEvent : std::uint8_t {
    LocalRead = 0,    ///< this core reads the block
    LocalWrite = 1,   ///< this core writes the block
    SnoopRead = 2,    ///< a peer's BusRd was observed
    SnoopReadX = 3,   ///< a peer's read-for-ownership was observed
    SnoopUpgrade = 4, ///< a peer's address-only upgrade was observed
};

const char *mesiEventName(MesiEvent event);

/**
 * The next state after @p event in @p state. @p shared_line is the
 * bus's shared signal, consulted only for Invalid + LocalRead (the
 * fill lands Shared when any peer holds the block, Exclusive when
 * none does). Panics on the illegal combinations described in the
 * file comment. Inline so the engine's kernel folds its constant
 * events (the oracle drives the same definition).
 */
inline MesiState
mesiNext(MesiState state, MesiEvent event, bool shared_line)
{
    switch (state) {
      case MesiState::Invalid:
        switch (event) {
          case MesiEvent::LocalRead:
            return shared_line ? MesiState::Shared
                               : MesiState::Exclusive;
          case MesiEvent::LocalWrite:
            return MesiState::Modified;
          case MesiEvent::SnoopRead:
          case MesiEvent::SnoopReadX:
          case MesiEvent::SnoopUpgrade:
            // The bus snoops holders only; snooping an Invalid line
            // means the holder bookkeeping is broken.
            panic("MESI: %s snooped in state I",
                  mesiEventName(event));
        }
        break;
      case MesiState::Shared:
        switch (event) {
          case MesiEvent::LocalRead:
            return MesiState::Shared;
          case MesiEvent::LocalWrite:
            // Address-only BusUpgr; peers leave via SnoopUpgrade.
            return MesiState::Modified;
          case MesiEvent::SnoopRead:
            return MesiState::Shared;
          case MesiEvent::SnoopReadX:
          case MesiEvent::SnoopUpgrade:
            return MesiState::Invalid;
        }
        break;
      case MesiState::Exclusive:
        switch (event) {
          case MesiEvent::LocalRead:
            return MesiState::Exclusive;
          case MesiEvent::LocalWrite:
            // The silent E->M upgrade: no bus transaction at all.
            return MesiState::Modified;
          case MesiEvent::SnoopRead:
            return MesiState::Shared;
          case MesiEvent::SnoopReadX:
            return MesiState::Invalid;
          case MesiEvent::SnoopUpgrade:
            // An upgrade implies the peer held Shared while we held
            // the only copy — mutually exclusive by construction.
            panic("MESI: snoop-upgrade observed in state E");
        }
        break;
      case MesiState::Modified:
        switch (event) {
          case MesiEvent::LocalRead:
          case MesiEvent::LocalWrite:
            return MesiState::Modified;
          case MesiEvent::SnoopRead:
            // Flush accounting happens at the bus; the state simply
            // demotes to Shared.
            return MesiState::Shared;
          case MesiEvent::SnoopReadX:
            return MesiState::Invalid;
          case MesiEvent::SnoopUpgrade:
            panic("MESI: snoop-upgrade observed in state M");
        }
        break;
    }
    panic("MESI: bad state %d / event %d", static_cast<int>(state),
          static_cast<int>(event));
}

} // namespace occsim

#endif // OCCSIM_COHERENCE_MESI_HH
