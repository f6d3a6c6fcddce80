"""The benchmark's workloads: what one pass runs and how it is checked.

Each workload sets up once (untimed except as ``setup_s``), then runs
passes.  A pass is ``prepare`` (untimed), ``run`` (timed) and ``check``
(untimed).  Every input comes from the run's ``--seed``; the program
receives only the generated inputs.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List

#: Modules set-up imports: everything a pass touches, so no pass pays
#: for a lazy import.  ``repro.cli`` pulls in the protocol catalog and
#: the claims harnesses; the batch engine pulls in numpy.
SETUP_MODULES = ("repro.cli", "repro.claims", "repro.radio.batch.engine")

#: Claims run by the reduced-size smoke runs: three cheap workload
#: groups that still write and read the cache and fit an exponent.
SMOKE_CLAIMS = (
    "thm2-cd-energy",
    "thm2-cd-rounds",
    "lemma8-backoff-energy",
    "lemma9-backoff-delivery",
    "thm1-energy-lower-bound",
)

#: Verdicts that count as decided; ``inconclusive`` is reported as is.
DECIDED = ("reproduced", "shape-only")

LARGE_N = 10 ** 5
LARGE_N_SMOKE = 2048
LARGE_N_TRIALS = 4


class PassCheck:
    """The correctness verdict on one pass's output."""

    def __init__(self, decided: int, problems: List[str],
                 detail: Dict[str, Any]):
        self.decided = decided
        self.problems = problems
        self.detail = detail


class Workload:
    """Set-up, per-pass and tear-down steps a workload does not need."""

    def setup(self) -> None:
        """Nothing beyond the imports."""

    def teardown(self) -> None:
        """Nothing to release."""

    def prepare(self) -> Any:
        return None

    def cleanup(self, prepared) -> None:
        """Nothing per pass."""


class ClaimsQuick(Workload):
    """``verify_claims(tier="quick")`` against an empty cache per pass."""

    name = "claims-quick"
    why = ("the command users run most: quick-tier claims from an empty "
           "cache, ~97% scalar engine, writing every trial to the cache")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from repro.claims import registered_claims
        from repro.constants import ConstantsProfile

        self.seed = seed
        self.workdir = workdir
        claims = registered_claims("quick", ConstantsProfile.practical())
        if smoke:
            claims = {key: claims[key] for key in SMOKE_CLAIMS}
        self.claims = list(claims.values())

    def prepare(self) -> Any:
        from repro.exec.cache import ResultCache

        return ResultCache(tempfile.mkdtemp(prefix="cold-", dir=self.workdir))

    def run(self, cache) -> Any:
        from repro.claims import verify_claims

        return verify_claims(
            self.claims, tier="quick", base_seed=self.seed, cache=cache, jobs=1
        )

    def cleanup(self, cache) -> None:
        shutil.rmtree(cache.root, ignore_errors=True)

    def check(self, result) -> PassCheck:
        verdicts = {v.claim_id: v.verdict for v in result.verdicts}
        problems = [
            f"{claim_id}: not-reproduced"
            for claim_id, verdict in verdicts.items()
            if verdict == "not-reproduced"
        ]
        if len(verdicts) != len(self.claims):
            problems.append(
                f"{len(verdicts)} verdicts for {len(self.claims)} claims"
            )
        decided = sum(1 for v in verdicts.values() if v in DECIDED)
        return PassCheck(decided, problems, {"verdicts": verdicts})


class ClaimsQuickWarm(ClaimsQuick):
    """The same claims, served from a cache filled during set-up."""

    name = "claims-quick-warm"
    why = ("the same claims read back from a cache filled in set-up: cache "
           "reads and claim fitting, plus the harness runs no cache serves")

    def setup(self) -> None:
        from repro.claims import verify_claims
        from repro.exec.cache import ResultCache

        self.fill_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=self.workdir))
        verify_claims(
            self.claims,
            tier="quick",
            base_seed=self.seed,
            cache=ResultCache(self.fill_dir),
            jobs=1,
        )

    def teardown(self) -> None:
        shutil.rmtree(self.fill_dir, ignore_errors=True)

    def prepare(self) -> Any:
        from repro.exec.cache import ResultCache

        # A fresh instance loads its shards from disk, as a re-run does.
        return ResultCache(self.fill_dir)

    def cleanup(self, cache) -> None:
        """The filled cache outlives the pass."""


class LargeNBatch(Workload):
    """Alg 1 (``cd-mis``) at n=10^5 on sparse G(n,p), batch engine."""

    name = "large-n-batch"
    why = ("the n=10^5 cell: 4 Alg 1 trials through the vectorized batch "
           "engine, dominated by graph building; the scalar engine is idle")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from repro.cli import make_protocol
        from repro.constants import ConstantsProfile

        self.n = LARGE_N_SMOKE if smoke else LARGE_N
        rng = random.Random(seed)
        self.seeds = [rng.getrandbits(32) for _ in range(LARGE_N_TRIALS)]
        self.protocol = make_protocol("cd-mis", ConstantsProfile.practical())

    def run(self, _prepared) -> Any:
        from repro.analysis.runner import run_trials
        from repro.analysis.workloads import build_workload
        from repro.radio.models import CD

        n = self.n
        return run_trials(
            lambda seed: build_workload("gnp", n, seed),
            self.protocol,
            CD,
            self.seeds,
            jobs=1,
            cache=False,
            engine="batch",
        )

    def check(self, summary) -> PassCheck:
        problems = [
            f"seed {o.seed}: invalid MIS ({', '.join(o.failure_kinds)})"
            for o in summary.outcomes
            if not o.valid
        ]
        if summary.trials != len(self.seeds):
            problems.append(f"{summary.trials} of {len(self.seeds)} trials ran")
        # One claim per pass: Alg 1 outputs a valid MIS on every trial.
        return PassCheck(0 if problems else 1, problems, {})


WORKLOADS = {
    cls.name: cls for cls in (ClaimsQuick, ClaimsQuickWarm, LargeNBatch)
}
