"""Beeping MIS with sender-side collision detection (§1.4 contrast).

Section 1.4 contrasts the paper's radio model with the beeping-model
MIS literature: "the best known MIS algorithms typically assume
*sender-side* collision detection, see e.g. [Jeavons-Scott-Xu], which
gives an optimal O(log n)-round MIS algorithm in the beeping model.
... In the radio model, sender-side CD is not assumed."

This protocol realizes that contrast measurably.  Under
:data:`~repro.radio.models.BEEPING_SENDER_CD`, a beeping node *hears*
whether any neighbor beeped in the same round, so a marked node can
test "am I the only marked node in my neighborhood?" **exactly**, in
one round — no repeated backoffs, no missed detections.  Two rounds per
iteration then suffice (in the style of [28], with the standard
desire-level adaptation):

1. **contend** — each undecided node beeps with its desire probability;
   every node (beeping or not) learns whether a neighbor beeped,
2. **announce** — a node that beeped alone joins the MIS and beeps;
   listeners that hear retire dominated.  Desire halves after hearing a
   marked neighbor, else doubles (capped at 1/2).

Since lone-beeper detection is exact, two adjacent joins are
*impossible* — independence is deterministic here, and the iteration
count is O(log n) w.h.p., matching [28]'s bound.  The measured gap to
Algorithm 1's O(log^2 n) rounds is experiment A6.
"""

from __future__ import annotations

from typing import Optional

from ..constants import ConstantsProfile
from ..errors import ConfigurationError
from ..radio.actions import LISTEN, TRANSMIT
from ..radio.node import Decision, NodeContext, Protocol, ProtocolRun

__all__ = ["SenderCDBeepingMISProtocol"]


class SenderCDBeepingMISProtocol(Protocol):
    """O(log n)-round beeping MIS assuming sender-side CD ([28]-style)."""

    name = "sender-cd-beep-mis"
    compatible_models = ("beep-sender-cd",)

    def __init__(
        self,
        constants: Optional[ConstantsProfile] = None,
        iterations_factor: float = 8.0,
    ):
        if iterations_factor <= 0:
            raise ConfigurationError(
                f"iterations_factor must be positive, got {iterations_factor}"
            )
        self.constants = constants or ConstantsProfile.practical()
        self.iterations_factor = iterations_factor

    def _iterations(self, n: int) -> int:
        from ..constants import ilog2

        return max(4, round(self.iterations_factor * ilog2(max(2, n))))

    def max_rounds_hint(self, n: int, delta: int) -> int:
        return 2 * self._iterations(n) + 2

    def run(self, ctx: NodeContext) -> ProtocolRun:
        iterations = self._iterations(ctx.n)
        desire = 0.5
        desire_floor = 1.0 / (4.0 * max(2, ctx.delta))

        for _ in range(iterations):
            marked = ctx.rng.random() < desire
            # --- contend: everyone perceives neighbor beeps ------------
            if marked:
                observation = yield TRANSMIT
            else:
                observation = yield LISTEN
            heard_marked = observation is not None and observation.heard_something

            if marked and not heard_marked:
                # Exact lone-beeper test passed: join and announce.
                yield TRANSMIT
                ctx.decide(Decision.IN_MIS)
                return
            observation = yield LISTEN
            if observation.heard_something:
                ctx.decide(Decision.OUT_MIS)
                return

            if heard_marked:
                desire = max(desire_floor, desire / 2.0)
            else:
                desire = min(0.5, desire * 2.0)
        # Iteration budget exhausted (low probability): stay undecided.
