"""The Competition subroutine (Algorithm 3) of the no-CD MIS algorithm.

A no-CD adaptation of Algorithm 1's bit-by-bit rank contest in which
every bitty phase is a k-repeated backoff (k = C' log n):

* 1-bit: the node runs Snd-EBackoff (awake once per iteration),
* 0-bit: the node runs Rec-EBackoff with its *current degree estimate*;
  hearing a message while uncommitted means a live neighbor beats it —
  it loses and sleeps out the rest of the competition,
* the first 0-bit on which a node hears **nothing** is decisive: by
  Lemma 12 it then has at most ``kappa log n`` non-lost neighbors
  w.h.p., so it *commits* — it drops its degree estimate to
  ``min(Delta, kappa log n)`` (shrinking all later listens) and pledges
  to get decided by the end of this Luby phase,
* a node that heard nothing in the entire competition **wins**
  (including committed nodes).

Outcome states therefore are:

* ``win``    — heard nothing at all; will deep-check then join the MIS,
* ``commit`` — committed, then heard something later; will deep-check
  and run LowDegreeMIS on the committed subgraph,
* ``lose``   — heard something before ever committing; will only do the
  cheap shallow check this phase.

The subroutine consumes exactly ``rank_bits * k * ceil(log Delta)``
rounds on every path, keeping Algorithm 2's global barriers aligned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..constants import ConstantsProfile
from ..radio.actions import Action, sleep_for
from ..radio.node import NodeContext
from .backoff import backoff_rounds, rec_ebackoff, snd_ebackoff
from .ranks import draw_rank, rank_to_int

__all__ = ["CompetitionOutcome", "competition", "competition_rounds"]

WIN = "win"
COMMIT = "commit"
LOSE = "lose"


@dataclass(frozen=True)
class CompetitionOutcome:
    """Result of one node's participation in one competition."""

    status: str  # WIN | COMMIT | LOSE
    committed: bool
    commit_bit: Optional[int]  # bitty phase index of the commitment, if any
    rank: int  # integer value of the node's rank bitstring
    heard: bool  # whether anything was heard during the competition


def competition_rounds(n: int, delta: int, constants: ConstantsProfile) -> int:
    """Round budget ``T_C = beta log n * T_B(C' log n)`` of one competition."""
    bits = constants.rank_bits(n)
    k = constants.deep_check_iterations(n)
    return bits * backoff_rounds(k, delta)


def competition(
    ctx: NodeContext,
    delta: int,
    constants: ConstantsProfile,
    committed_degree: Optional[int] = None,
    mute_committed_on_hear: bool = False,
    enable_commit: bool = True,
) -> Generator[Action, object, CompetitionOutcome]:
    """Run Algorithm 3 for one node; returns a :class:`CompetitionOutcome`.

    ``delta`` is the shared degree upper bound (all nodes must pass the
    same value — it fixes the slot count and hence the budget).
    ``committed_degree`` is the reduced estimate adopted on commitment,
    defaulting to ``min(delta, kappa log n)``.

    ``mute_committed_on_hear`` is an **ablation knob**, off by default.
    Per the printed pseudocode, a committed node that later hears a
    neighbor keeps transmitting on its 1-bits; as a consequence a
    locally-maximum node can hear such a neighbor on one of its 0-bits
    and finish the competition as ``commit`` rather than ``win``
    (empirically ~13% of local maxima at n=128 — see experiment E12).
    This never breaks correctness — committed nodes are decided inside
    the same phase via LowDegreeMIS (Lemma 16) — but it does dilute the
    literal statement of Lemma 14.  With the knob on, a committed node
    that has heard something stops transmitting (it stays a listener),
    restoring "local maxima win" almost surely; the E12 ablation bench
    measures both settings.

    ``enable_commit=False`` is the §5.1.1 **ablation**: nodes never
    commit, so the degree estimate never shrinks and any hearing on a
    0-bit is an immediate loss.  Winners then pay full
    ``O(log n log Delta)`` listening on *every* 0-bit — the energy sink
    the commitment mechanism exists to remove.
    """
    bits = constants.rank_bits(ctx.n)
    k = constants.deep_check_iterations(ctx.n)
    bitty_rounds = backoff_rounds(k, delta)
    if committed_degree is None:
        committed_degree = min(delta, constants.committed_degree(ctx.n))

    delta_est = delta
    heard = False
    committed = False
    commit_bit: Optional[int] = None
    rank = draw_rank(ctx.rng, bits)

    for position, bit in enumerate(rank):
        if bit:
            if mute_committed_on_hear and committed and heard:
                # Ablation: a beaten committed node stays silent.
                yield sleep_for(bitty_rounds)
            else:
                ctx.set_component("competition-send")
                yield from snd_ebackoff(ctx, k, delta)
            continue
        ctx.set_component("competition-listen")
        heard_now = yield from rec_ebackoff(ctx, k, delta, delta_est)
        heard = heard or heard_now
        if not enable_commit:
            if heard:
                remaining = bits - (position + 1)
                if remaining:
                    yield sleep_for(remaining * bitty_rounds)
                return CompetitionOutcome(
                    status=LOSE,
                    committed=False,
                    commit_bit=None,
                    rank=rank_to_int(rank),
                    heard=True,
                )
            continue
        if heard and not committed:
            # Lost: sleep through the remaining bitty phases.
            remaining = bits - (position + 1)
            if remaining:
                yield sleep_for(remaining * bitty_rounds)
            return CompetitionOutcome(
                status=LOSE,
                committed=False,
                commit_bit=None,
                rank=rank_to_int(rank),
                heard=True,
            )
        if not heard and not committed:
            committed = True
            commit_bit = position
            delta_est = min(delta, committed_degree)

    status = WIN if not heard else COMMIT
    return CompetitionOutcome(
        status=status,
        committed=committed,
        commit_bit=commit_bit,
        rank=rank_to_int(rank),
        heard=heard,
    )
