"""LowDegreeMIS: a no-CD MIS subroutine with a fixed round budget (§4.2).

The paper plugs Davies' [PODC'23] algorithm — with minor improvements,
O(log^2 n log Delta) rounds — into Algorithm 2 to finish off the
committed subgraph (max degree O(log n), so the budget becomes
T_G = O(log^2 n log log n)).  Davies' construction simulates Ghaffari's
MIS over radio; we implement the same shape with the paper's own backoff
primitives (a documented substitution, see DESIGN.md):

* ``O(log n)`` outer iterations, each a simulated Ghaffari round,
* per outer iteration, two k-repeated backoff *exchanges*
  (k = Theta(log n)) over ``ceil(log d)`` slots, where ``d`` is the
  degree bound of the participating subgraph:

  - **exchange A** — nodes *marked* with their current desire level
    contend via :func:`~repro.core.backoff.snd_rec_ebackoff` (transmit
    in the geometric slot, listen otherwise); unmarked nodes listen,
  - **exchange B** — nodes that were marked and heard no other marked
    node irrevocably *join* the MIS and announce via Snd-EBackoff;
    everyone else listens and exits *dominated* upon hearing,

* desire levels follow the beeping-style rule (halve after hearing a
  marked neighbor, else double, capped at 1/2) in place of Davies'
  EstimateEffectiveDegree — same O(log n) outer-round envelope on the
  low-degree subgraphs this is invoked on.

Everything is deterministic in *round budget*: a full run spans exactly
:func:`low_degree_mis_rounds` rounds, which is what lets Algorithm 2
keep all nodes synchronized.  Dominated nodes may return early; the
caller sleeps them to the barrier.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..constants import ConstantsProfile
from ..radio.actions import Action, sleep_for
from ..radio.node import Decision, NodeContext, Protocol, ProtocolRun
from .backoff import backoff_rounds, rec_ebackoff, snd_ebackoff, snd_rec_ebackoff

__all__ = [
    "low_degree_mis_rounds",
    "low_degree_mis",
    "LowDegreeMISProtocol",
]

#: Sub-protocol outcomes (strings so callers can store them in info dicts).
JOINED = "joined"
DOMINATED = "dominated"
UNDECIDED = "undecided"


def low_degree_mis_rounds(n: int, degree_bound: int, constants: ConstantsProfile) -> int:
    """Total rounds of one LowDegreeMIS run: ``T_G`` in the paper.

    ``outer * 2 * k * ceil(log d)`` with ``outer, k = Theta(log n)``;
    plugging ``d = kappa log n`` gives the paper's
    ``O(log^2 n log log n)``.
    """
    outer = constants.low_degree_iterations(n)
    k = constants.deep_check_iterations(n)
    return outer * 2 * backoff_rounds(k, degree_bound)


def low_degree_mis(
    ctx: NodeContext,
    degree_bound: int,
    constants: ConstantsProfile,
) -> Generator[Action, object, str]:
    """Participate in one LowDegreeMIS run; returns JOINED/DOMINATED/UNDECIDED.

    Only *participants* call this; non-participants must stay silent
    (asleep) for the same window.  A DOMINATED return may leave the
    budget unconsumed — the caller is responsible for sleeping to the
    barrier.
    """
    outer = constants.low_degree_iterations(ctx.n)
    k = constants.deep_check_iterations(ctx.n)
    exchange_rounds = backoff_rounds(k, degree_bound)

    desire = 0.5
    desire_floor = 1.0 / (4.0 * max(2, degree_bound))
    joined = False

    for _ in range(outer):
        # ----- exchange A: marked nodes contend -------------------------
        if joined:
            yield sleep_for(exchange_rounds)
            heard_marked = False
            marked = False
        else:
            marked = ctx.rng.random() < desire
            if marked:
                heard_marked = yield from snd_rec_ebackoff(
                    ctx, k, degree_bound, degree_bound
                )
            else:
                heard_marked = yield from rec_ebackoff(
                    ctx, k, degree_bound, degree_bound
                )
        if marked and not heard_marked:
            # Irrevocable: competing neighbors would have been heard w.h.p.
            joined = True

        # ----- exchange B: joiners announce, others check ----------------
        if joined:
            yield from snd_ebackoff(ctx, k, degree_bound)
        else:
            heard_mis = yield from rec_ebackoff(ctx, k, degree_bound, degree_bound)
            if heard_mis:
                return DOMINATED
            # Desire-level update (beeping-style Ghaffari surrogate).
            if heard_marked:
                desire = max(desire_floor, desire / 2.0)
            else:
                desire = min(0.5, desire * 2.0)

    return JOINED if joined else UNDECIDED


class LowDegreeMISProtocol(Protocol):
    """Standalone wrapper: LowDegreeMIS as a full-graph no-CD MIS.

    With ``degree_bound = Delta`` this is our stand-in for the improved
    Davies algorithm of Section 4.2 — O(log^2 n log Delta) rounds, and
    since participants stay awake through most exchanges, energy of the
    same order.  It is the round-efficient / energy-oblivious baseline
    Algorithm 2 is compared against (experiments E4, E5, E11).
    """

    name = "davies-low-degree-mis"
    compatible_models = ("no-cd", "cd")

    def __init__(
        self,
        constants: Optional[ConstantsProfile] = None,
        degree_bound: Optional[int] = None,
    ):
        self.constants = constants or ConstantsProfile.practical()
        self.degree_bound = degree_bound

    def _effective_degree_bound(self, ctx: NodeContext) -> int:
        if self.degree_bound is not None:
            return max(1, self.degree_bound)
        return max(1, ctx.delta)

    def max_rounds_hint(self, n: int, delta: int) -> int:
        bound = self.degree_bound if self.degree_bound is not None else max(1, delta)
        return low_degree_mis_rounds(n, max(1, bound), self.constants) + 1

    def run(self, ctx: NodeContext) -> ProtocolRun:
        ctx.set_component("low-degree-mis")
        outcome = yield from low_degree_mis(
            ctx, self._effective_degree_bound(ctx), self.constants
        )
        if outcome == JOINED:
            ctx.decide(Decision.IN_MIS)
        elif outcome == DOMINATED:
            ctx.decide(Decision.OUT_MIS)
        ctx.info["low_degree_outcome"] = outcome
