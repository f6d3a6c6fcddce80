"""Channel-hopping MIS for multichannel radio networks (Daum–Kuhn style).

Daum and Kuhn ("Tight Bounds for MIS in Multichannel Radio Networks")
show that spreading contention over C frequencies buys rounds: nodes
that hop to a random channel compete against only ~1/C of their
neighbors, so each phase elects up to C independent winners per
neighborhood instead of one.  This protocol is the natural multichannel
lift of :class:`~repro.baselines.naive_cd_luby.NaiveCDLubyProtocol`,
built to measure that round/energy tradeoff against the source paper's
single-channel baselines:

1. **Hop** — each phase, every undecided node picks a uniform channel
   ``c`` and runs the Luby rank tournament *on that channel*: transmit
   the rank's 1-bits, listen otherwise, and drop out upon hearing a
   same-channel neighbor on a 0-bit.  Per-channel collision resolution
   (see :mod:`repro.radio.models`) means other channels' traffic is
   inaudible, so the C tournaments run in parallel.
2. **Announce** — winners commit in a C-slot, time-multiplexed block on
   channel 0, ordered by channel index: the channel-``c`` winner listens
   through slots ``0..c-1`` (hearing anything means an adjacent winner
   on a lower channel already committed — defer and decide OUT), then
   transmits in slot ``c`` and decides IN.  Losers listen through the
   block and decide OUT on the first thing they hear.

Independence holds with high probability: two adjacent winners on the
*same* channel would need identical ranks in the same tournament (the
same whp-excluded event as the single-channel baseline), and adjacent
winners on *different* channels are serialized by the announce order.
Maximality is Monte Carlo over the phase budget, exactly like the
single-channel strawman.

With ``channels=1`` the hop draw is skipped and the announce block
degenerates to the baseline's one-round check, so the action and RNG
sequences are identical to ``NaiveCDLubyProtocol`` — runs are
bit-identical, which the channels property tests pin.

Per-phase cost is ``rank_bits + C`` awake rounds (vs ``rank_bits + 1``
single-channel), while per-phase progress grows with C: the CHANNELS
experiment sweeps C to chart where the tradeoff pays.
"""

from __future__ import annotations

from typing import Optional

from ..constants import ConstantsProfile
from ..core.ranks import draw_rank
from ..errors import ConfigurationError
from ..radio.actions import LISTEN, TRANSMIT, Listen, Transmit
from ..radio.node import Decision, NodeContext, Protocol, ProtocolRun

__all__ = ["MultichannelMISProtocol"]


class MultichannelMISProtocol(Protocol):
    """Channel-hopping Luby: C parallel tournaments, serialized announce."""

    name = "mc-luby"
    # The announce block needs >= 1 transmitter to be audible (a lone
    # message under CD, a beep under beeping); no-CD's silent collisions
    # would hide committed winners from their neighbors.
    compatible_models = ("cd", "beep")

    def __init__(
        self,
        constants: Optional[ConstantsProfile] = None,
        channels: int = 1,
    ):
        if not isinstance(channels, int) or isinstance(channels, bool) or (
            channels < 1
        ):
            raise ConfigurationError(
                f"channel count must be a positive int, got {channels!r}"
            )
        self.constants = constants or ConstantsProfile.practical()
        self.channels = channels

    def max_rounds_hint(self, n: int, delta: int) -> int:
        bits = self.constants.rank_bits(n)
        phases = self.constants.luby_phases(n)
        return phases * (bits + self.channels) + 1

    def run(self, ctx: NodeContext) -> ProtocolRun:
        bits = self.constants.rank_bits(ctx.n)
        phases = self.constants.luby_phases(ctx.n)
        channels = self.channels

        for _ in range(phases):
            # Skipping the draw at C=1 keeps the RNG stream (and hence
            # the whole run) bit-identical to the single-channel
            # baseline — the C=1 equivalence tests rely on it.
            channel = ctx.rng.randrange(channels) if channels > 1 else 0
            rank = draw_rank(ctx.rng, bits)
            transmit = Transmit(1, channel)
            listen = Listen(channel)
            lost = False
            ctx.set_component("competition")
            for bit in rank:
                if bit and not lost:
                    yield transmit
                else:
                    observation = yield listen
                    if observation.heard_something and not bit:
                        lost = True

            ctx.set_component("check")
            if not lost:
                # Defer to lower-channel winners: anything heard in an
                # earlier announce slot is an adjacent committed winner.
                for _slot in range(channel):
                    observation = yield LISTEN
                    if observation.heard_something:
                        ctx.decide(Decision.OUT_MIS)
                        return
                yield TRANSMIT
                ctx.decide(Decision.IN_MIS)
                return
            # Losers audit the whole announce block: the first audible
            # slot proves an adjacent winner committed.
            for _slot in range(channels):
                observation = yield LISTEN
                if observation.heard_something:
                    ctx.decide(Decision.OUT_MIS)
                    return
