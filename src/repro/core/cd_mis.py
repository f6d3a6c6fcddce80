"""Algorithm 1: energy-optimal MIS in the CD model (Theorem 2).

Each of ``C log n`` Luby phases has a *competition* of ``beta log n``
bitty phases followed by a one-round *check*:

* bitty phase ``j``: a node transmits if bit ``j`` of its fresh random
  rank is 1, otherwise listens; hearing a message **or a collision** on
  a 0-bit means a neighbor's rank beats it, so it sleeps out the rest of
  the competition,
* a node that survives all bitty phases *wins*: it transmits a
  confirmation in the check round, decides IN_MIS and terminates,
* a node that lost listens in the check round; hearing anything means a
  neighbor just joined the MIS, so it decides OUT_MIS and terminates.

Because only the *act* of transmission matters, the identical protocol
runs in the beeping model (Section 3.1) — declared via
``compatible_models``.

Energy: O(log n) w.h.p. (early rounds are "fruitful" with probability
>= 1/4; late rounds fit inside one phase).  Rounds: O(log^2 n).
"""

from __future__ import annotations

from typing import Optional

from ..constants import ConstantsProfile
from ..radio.actions import LISTEN, TRANSMIT, sleep_for
from ..radio.node import Decision, NodeContext, Protocol, ProtocolRun
from .ranks import draw_rank, rank_to_int

__all__ = ["CDMISProtocol", "BeepingMISProtocol"]


class CDMISProtocol(Protocol):
    """The paper's Algorithm 1.

    Parameters
    ----------
    constants:
        Multiplier profile; defaults to
        :meth:`~repro.constants.ConstantsProfile.practical`.
    instrument:
        When true, each node records a per-phase log in
        ``ctx.info["phase_log"]`` (rank, outcome) plus
        ``ctx.info["decided_phase"]`` — consumed by the residual-graph
        and lemma-validation experiments (E8, E12).
    """

    name = "cd-mis"
    compatible_models = ("cd", "beep")

    def __init__(
        self,
        constants: Optional[ConstantsProfile] = None,
        instrument: bool = False,
    ):
        self.constants = constants or ConstantsProfile.practical()
        self.instrument = instrument

    def max_rounds_hint(self, n: int, delta: int) -> int:
        bits = self.constants.rank_bits(n)
        phases = self.constants.luby_phases(n)
        return phases * (bits + 1) + 1

    def run(self, ctx: NodeContext) -> ProtocolRun:
        bits = self.constants.rank_bits(ctx.n)
        phases = self.constants.luby_phases(ctx.n)
        phase_log = []
        if self.instrument:
            ctx.info["phase_log"] = phase_log
            ctx.info["decided_phase"] = None

        for phase in range(phases):
            rank = draw_rank(ctx.rng, bits)
            lost = False
            ctx.set_component("competition")
            for position, bit in enumerate(rank):
                if bit:
                    yield TRANSMIT
                else:
                    observation = yield LISTEN
                    if observation.heard_something:
                        lost = True
                        remaining = bits - (position + 1)
                        if remaining:
                            yield sleep_for(remaining)
                        break

            ctx.set_component("check")
            if not lost:
                # Winner: confirm inclusion so losing neighbors terminate.
                yield TRANSMIT
                ctx.decide(Decision.IN_MIS)
                if self.instrument:
                    phase_log.append(
                        {"phase": phase, "rank": rank_to_int(rank), "outcome": "win"}
                    )
                    ctx.info["decided_phase"] = phase
                return
            observation = yield LISTEN
            if observation.heard_something:
                ctx.decide(Decision.OUT_MIS)
                if self.instrument:
                    phase_log.append(
                        {"phase": phase, "rank": rank_to_int(rank), "outcome": "dominated"}
                    )
                    ctx.info["decided_phase"] = phase
                return
            if self.instrument:
                phase_log.append(
                    {"phase": phase, "rank": rank_to_int(rank), "outcome": "lose"}
                )
        # All phases exhausted without deciding: a (low-probability)
        # failure; the node stays UNDECIDED and the run reports invalid.


class BeepingMISProtocol(CDMISProtocol):
    """Algorithm 1 under its beeping-model reading (Section 3.1).

    Functionally identical — "transmit 1" becomes "beep" and "heard 1 or
    collision" becomes "heard a beep".  A separate class so experiment
    reports can distinguish the two settings.
    """

    name = "beeping-mis"
    compatible_models = ("beep", "cd")
