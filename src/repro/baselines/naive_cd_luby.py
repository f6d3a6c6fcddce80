"""Naive CD-model Luby: the O(log^2 n)-energy strawman (Section 1.3).

"A somewhat straightforward implementation of Luby for radio networks
will take O(log^2 n) energy and rounds in the CD model."  This protocol
is Algorithm 1 *without* the energy-saving early sleep: a node that
loses the competition stays awake **listening** through every remaining
bitty phase of the Luby phase instead of sleeping, so each phase costs
every participant the full ``beta log n + 1`` awake rounds.

Winners and the output set are distributed identically to Algorithm 1
(a lost node never transmits again within the phase, and extra listening
carries no algorithmic effect), which makes this the controlled baseline
for the energy experiments: same output law, Theta(log n) times the
energy.
"""

from __future__ import annotations

from typing import Optional

from ..constants import ConstantsProfile
from ..radio.actions import LISTEN, TRANSMIT
from ..radio.node import Decision, NodeContext, Protocol, ProtocolRun
from ..core.ranks import draw_rank

__all__ = ["NaiveCDLubyProtocol"]


class NaiveCDLubyProtocol(Protocol):
    """Algorithm 1 minus the early sleep — the energy-oblivious baseline."""

    name = "naive-cd-luby"
    compatible_models = ("cd", "beep")

    def __init__(self, constants: Optional[ConstantsProfile] = None):
        self.constants = constants or ConstantsProfile.practical()

    def max_rounds_hint(self, n: int, delta: int) -> int:
        bits = self.constants.rank_bits(n)
        phases = self.constants.luby_phases(n)
        return phases * (bits + 1) + 1

    def run(self, ctx: NodeContext) -> ProtocolRun:
        bits = self.constants.rank_bits(ctx.n)
        phases = self.constants.luby_phases(ctx.n)

        for _ in range(phases):
            rank = draw_rank(ctx.rng, bits)
            lost = False
            ctx.set_component("competition")
            for bit in rank:
                if bit and not lost:
                    yield TRANSMIT
                else:
                    # Energy-oblivious: keep listening even after losing
                    # (and on 1-bits once lost, since a lost node must
                    # stop transmitting to preserve the winner law).
                    observation = yield LISTEN
                    if observation.heard_something and not bit:
                        lost = True

            ctx.set_component("check")
            if not lost:
                yield TRANSMIT
                ctx.decide(Decision.IN_MIS)
                return
            observation = yield LISTEN
            if observation.heard_something:
                ctx.decide(Decision.OUT_MIS)
                return
