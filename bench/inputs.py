"""Inputs for the benchmark workloads.

The strategic-showcase draw is sampled here, without the program, and written with this module's
own CSV writer, so the ground truth (true preference orders) never reaches
the program: it gets ``students.csv``, ``rols.csv`` and ``outcomes.csv``
only.  The design constants mirror the packaged ``strategic-showcase``
mixture; keeping a copy here is what lets the checks compute the truth apart
from the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

OUTSIDE = 0


@dataclass(frozen=True)
class Kind:
    """One behavioural type of a single-score mixture design."""

    mass: float
    order: tuple[int, ...]          # true order over 0..J, best first
    report: tuple[int, ...]         # list submitted at or above the split
    probs: tuple[float, ...]        # success probability per option 0..J
    report_below: tuple[int, ...] | None = None

    def report_for(self, above: bool) -> tuple[int, ...]:
        if not above and self.report_below is not None:
            return self.report_below
        return self.report


@dataclass(frozen=True)
class Design:
    """A mixture over one shared score: the input a population cell uses."""

    n_schools: int
    list_cap: int
    cutoff_targets: tuple[float | None, ...]   # None: ample seats
    kinds: tuple[Kind, ...]
    school: int
    fallback: int
    score_lo: float = 0.0
    score_hi: float = 1000.0

    def cutoff_values(self) -> dict[int, float]:
        floor = self.score_lo - 1.0
        return {m: floor if c is None else float(c)
                for m, c in enumerate(self.cutoff_targets, start=1)}


SHOWCASE = Design(
    n_schools=4, list_cap=3, cutoff_targets=(None, 300.0, None, 800.0),
    kinds=(
        Kind(0.4, (4, 2, 1, 3, 0), (4, 2, 1), (0.1, 0.3, 0.6, 0.4, 0.7)),
        Kind(0.4, (4, 2, 1, 3, 0), (4, 2, 1), (0.1, 0.3, 0.05, 0.4, 0.7),
             report_below=(2, 1, 3)),
        Kind(0.2, (2, 1, 3, 0, 4), (2, 1, 3), (0.1, 0.3, 0.8, 0.4, 0.0)),
    ),
    school=4, fallback=2)


@dataclass
class Cohort:
    """A sampled cohort plus the truth the benchmark keeps to itself."""

    scores: np.ndarray              # (n,) one shared score
    reports: list[tuple[int, ...]]
    capacities: tuple[int, ...]
    orders: np.ndarray              # (n, J+1) true orders
    y: np.ndarray                   # observed outcomes where assigned
    n_schools: int
    list_cap: int


def sample_cohort(design: Design, n: int, seed: int) -> Cohort:
    """Draw ``n`` students; capacities equal the head count intending each
    targeted school, so a correct matching gives every student the first
    listed school whose target they clear."""
    rng = np.random.default_rng((seed, 0xBE7C4))
    scores = rng.uniform(design.score_lo, design.score_hi, size=n)
    while np.unique(scores).size < n:
        scores = rng.uniform(design.score_lo, design.score_hi, size=n)
    masses = np.array([k.mass for k in design.kinds])
    kind_idx = rng.choice(len(design.kinds), size=n, p=masses / masses.sum())
    split = design.cutoff_targets[design.school - 1]
    targets = design.cutoff_values()
    reports = [design.kinds[k].report_for(bool(s >= split))
               for k, s in zip(kind_idx, scores)]
    assigned = np.zeros(n, dtype=np.int64)
    for i, (rol, s) in enumerate(zip(reports, scores)):
        for j in rol:
            if s >= targets[j]:
                assigned[i] = j
                break
    caps = []
    for m, c in enumerate(design.cutoff_targets, start=1):
        caps.append(n if c is None else int((assigned == m).sum()))
    probs = np.array([k.probs for k in design.kinds])
    potential = rng.random((n, design.n_schools + 1)) < probs[kind_idx]
    y = potential[np.arange(n), assigned].astype(float)
    orders = np.array([design.kinds[k].order for k in kind_idx])
    return Cohort(scores=scores, reports=reports, capacities=tuple(caps),
                  orders=orders, y=y,
                  n_schools=design.n_schools, list_cap=design.list_cap)


def write_cohort_csvs(cohort: Cohort, in_dir: Path) -> None:
    """``students.csv`` (one column per school, all the shared score),
    ``rols.csv`` and ``outcomes.csv``, floats in round-trip precision."""
    in_dir.mkdir(parents=True, exist_ok=True)
    J = cohort.n_schools
    head = ",".join(["id"] + [f"s_{j}" for j in range(1, J + 1)])
    with open(in_dir / "students.csv", "w") as fh:
        fh.write(head + "\n")
        for i, s in enumerate(cohort.scores.tolist()):
            fh.write(f"{i}" + f",{s!r}" * J + "\n")
    with open(in_dir / "rols.csv", "w") as fh:
        fh.write("id,rank,school_id\n")
        for i, rol in enumerate(cohort.reports):
            for rank, j in enumerate(rol, start=1):
                fh.write(f"{i},{rank},{j}\n")
    with open(in_dir / "outcomes.csv", "w") as fh:
        fh.write("id,y_observed\n")
        for i, v in enumerate(cohort.y.tolist()):
            fh.write(f"{i},{v!r}\n")


# ---------------------------------------------------------------------------
# workload configurations

INGEST_N = 50_000

# The J=6 cohort is fixed, not drawn from --seed: event-LP cost swings by
# 2x and more between DGP seeds (see README), and its two falsified-yet-
# consistent combinations must be the same in every run.
STRATEGIC_J6_DGP = {
    "n_students": 3000, "n_schools": 6, "list_cap": 3, "score_mode": "sd",
    "capacities": [125, 150, 188, 250, 375, 750],   # the DGP's default shares
    "outcome": {"kind": "binary"},
    "reporting": {"model": "belief_skip", "noise_sd": 20},
    "seed": 2,
}

SWEEP_DESIGNS_PER_FAMILY = 25
RANDOM_FAMILY_SEED = 0


def ingest_config(in_dir: Path, out_dir: Path, cohort: Cohort) -> dict:
    return {"input_dir": str(in_dir), "capacities": list(cohort.capacities),
            "list_cap": cohort.list_cap, "out_dir": str(out_dir)}


def strategic_j6_config(out_dir: Path, dgp: dict = STRATEGIC_J6_DGP) -> dict:
    return {"dgp": dict(dgp), "out_dir": str(out_dir),
            "falsification": {"action": "warn"}}


SWEEP_CANDIDATE_SEEDS = 2000


def sweep_design_seeds(seed: int, family: str) -> list[int]:
    """Candidate design seeds for one family.

    Anchored designs are drawn from ``seed``.  Random designs are not: their
    cost is heavy-tailed (a few five-school designs with long closures make
    most of the sweep's time and its peak memory), so seeded draws would
    measure the seed.  They come from ``RANDOM_FAMILY_SEED`` in every run.
    """
    if family == "random_mixture_design":
        seed = RANDOM_FAMILY_SEED
    rng = np.random.default_rng((seed, sum(family.encode()), 0x5EE9))
    return [int(s) for s in rng.integers(0, 2**31 - 1,
                                          size=SWEEP_CANDIDATE_SEEDS)]


def sweep_quotas(family: str, per_family: int) -> dict[int, int]:
    """How many designs of each size the sweep takes from one family.

    Anchored designs are split evenly by type count (6 or 7), random ones by
    school count (3, 4 or 5), the larger shares going to the smaller sizes.
    """
    sizes = (6, 7) if family == "anchored_mixture_design" else (3, 4, 5)
    base, extra = divmod(per_family, len(sizes))
    return {size: base + (k < extra) for k, size in enumerate(sizes)}
