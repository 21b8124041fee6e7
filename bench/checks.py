"""Correctness checks computed apart from the program.

Every check returns a list of problems (empty when it passes).  Nothing here
imports the program: matching, true local pairs, union closures, the
containment polytope (solved with scipy's HiGHS), the naive contrast and
the population truth are all recomputed from the inputs and the run's
artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from inputs import OUTSIDE, Design

Pair = tuple[int, int]

TOL = 1e-9          # interval containment and exact-value comparisons
LP_TOL = 1e-6       # program LP values against HiGHS
TRUTH_Z = 4.0       # standard errors a sampled interval may miss the
                    # population truth by
CHAINS = (("spo+umas", "spo"), ("spo", "wpo"), ("wpo+umas", "wpo"),
          ("spo+umas", "wpo+umas"))


# ---------------------------------------------------------------------------
# reading artifacts


def read_cutoffs(path: Path) -> dict[int, float]:
    with open(path, newline="") as fh:
        return {int(r["school_id"]): float(r["cutoff"])
                for r in csv.DictReader(fh)}


def read_assignment(path: Path, n: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                      ndmin=2)
    out = np.full(n, -1, dtype=np.int64)
    out[data[:, 0]] = data[:, 1]
    return out


def read_scores(path: Path) -> np.ndarray:
    """The shared score column of a ``students.csv``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[np.argsort(data[:, 0], kind="stable"), 1]


def read_rols(path: Path, n: int) -> list[tuple[int, ...]]:
    lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for sid, rank, school in reader:
            lists[int(sid)].append((int(rank), int(school)))
    return [tuple(j for _, j in sorted(rows)) for rows in lists]


def read_orders(path: Path, n: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as fh:
        n_q = sum(1 for c in fh.readline().split(",") if c.startswith("q_"))
    data = data[np.argsort(data[:, 0], kind="stable")]
    return data[:, 1:1 + n_q].astype(np.int64)


def artifact_digest(out_dir: Path) -> str:
    """One SHA-256 over the names and bytes of a run's artifacts, leaving out
    ``timing.json``, whose digits vary from run to run."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.is_file() and path.name != "timing.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_qset(text: str) -> frozenset[Pair]:
    return frozenset(tuple(int(v) for v in p.split(":"))
                     for p in text.split("|"))


def read_qsets(path: Path) -> dict[tuple[int, str], list[tuple[int, str, frozenset[Pair]]]]:
    """(school, regime) -> [(student, side, candidate set)] from qsets.csv."""
    out: dict[tuple[int, str], list] = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            out.setdefault((int(r["school"]), r["regime"]), []).append(
                (int(r["student_id"]), r["side"], parse_qset(r["qset"])))
    return out


# ---------------------------------------------------------------------------
# matching


def serial_dictatorship(scores: np.ndarray, reports: Sequence[Sequence[int]],
                        capacities: Sequence[int]) -> tuple[np.ndarray, dict[int, float]]:
    """Assignment and cutoffs under one shared score, highest score first.

    A full school's cutoff is its lowest admitted score, an under-filled
    school's the score floor (lowest score minus one), a seatless school's
    +inf.
    """
    seats = list(capacities)
    assigned = np.zeros(len(scores), dtype=np.int64)
    lowest = [math.inf] * len(capacities)
    for i in np.argsort(-scores, kind="stable").tolist():
        for j in reports[i]:
            if seats[j - 1] > 0:
                seats[j - 1] -= 1
                assigned[i] = j
                lowest[j - 1] = float(scores[i])
                break
    floor = float(scores.min()) - 1.0
    cutoffs = {}
    for j, q in enumerate(capacities, start=1):
        if q == 0:
            cutoffs[j] = math.inf
        elif seats[j - 1] > 0:
            cutoffs[j] = floor
        else:
            cutoffs[j] = lowest[j - 1]
    return assigned, cutoffs


def check_matching(scores: np.ndarray, reports: Sequence[Sequence[int]],
                   capacities: Sequence[int], assigned: np.ndarray,
                   cutoffs: Mapping[int, float]) -> list[str]:
    """Each student gets the first listed school whose cutoff they clear,
    capacities hold, and both agree with an independent serial dictatorship."""
    problems = []
    fills = np.bincount(assigned, minlength=len(capacities) + 1)[1:]
    over = [j for j, (f, q) in enumerate(zip(fills, capacities), start=1)
            if f > q]
    if over:
        problems.append(f"capacity exceeded at schools {over}")
    wrong = []
    for i, rol in enumerate(reports):
        want = next((j for j in rol if scores[i] >= cutoffs[j]), OUTSIDE)
        if assigned[i] != want:
            wrong.append(i)
    if wrong:
        problems.append(f"{len(wrong)} students not at the first listed school "
                        f"whose cutoff they clear, e.g. {wrong[:5]}")
    own, own_cut = serial_dictatorship(scores, reports, capacities)
    differ = np.nonzero(own != assigned)[0]
    if differ.size:
        problems.append(f"{differ.size} assignments differ from serial "
                        f"dictatorship, e.g. {differ[:5].tolist()}")
    bad_cut = [j for j in own_cut
               if not (own_cut[j] == cutoffs.get(j)
                       or abs(own_cut[j] - cutoffs.get(j, math.nan)) <= TOL)]
    if bad_cut:
        problems.append(f"cutoffs differ from serial dictatorship at {bad_cut}")
    return problems


# ---------------------------------------------------------------------------
# true local pairs and the regime each cohort satisfies


def best_in(order: Iterable[int], budget: set[int] | frozenset[int]) -> int:
    for d in order:
        if d == OUTSIDE or d in budget:
            return int(d)
    return OUTSIDE


def side_budgets(score: float, cutoffs: Mapping[int, float],
                 school: int) -> tuple[set[int], set[int]]:
    """(just-below, just-above) budgets at ``school`` under one shared score:
    schools whose cutoff equals the studied one move with it."""
    cj = cutoffs[school]
    budget = {OUTSIDE} | {m for m, c in cutoffs.items() if score >= c}
    twins = {m for m, c in cutoffs.items() if c == cj}
    return budget - twins, budget | twins


def regime_coverage(rows, orders: np.ndarray, scores: np.ndarray,
                    cutoffs: Mapping[int, float], school: int) -> list[int]:
    """Window students whose true local pair is missing from their set."""
    missing = []
    for sid, _, qset in rows:
        below, above = side_budgets(float(scores[sid]), cutoffs, school)
        true = (best_in(orders[sid], above), best_in(orders[sid], below))
        if true not in qset:
            missing.append(sid)
    return missing


# ---------------------------------------------------------------------------
# the containment polytope, rebuilt and solved with HiGHS


def union_closure(members: Iterable[int]) -> set[int]:
    """All unions of nonempty subfamilies, sets encoded as bit masks."""
    closed: set[int] = set()
    for m in members:
        closed |= {m | s for s in closed}
        closed.add(m)
    return closed


def side_rows(qsets: Sequence[frozenset[Pair]],
              bit: Mapping[Pair, int]) -> dict[int, float]:
    """Containment frequency of the side's candidate sets in every member
    of its union closure."""
    masks, counts = np.unique(
        np.array([sum(1 << bit[p] for p in q) for q in qsets], dtype=np.int64),
        return_counts=True)
    n = counts.sum()
    rows = {}
    for a in union_closure(masks.tolist()):
        inside = (masks & ~np.int64(a)) == 0
        rows[a] = float(counts[inside].sum() / n)
    return rows


def event_bounds_highs(plus: Sequence[frozenset[Pair]],
                       minus: Sequence[frozenset[Pair]],
                       pair: Pair) -> tuple[float, float] | None:
    """[min, max] mass on ``pair`` over the polytope, None if empty.

    Variables are the masses of the atoms seen on either side plus one
    residual; a set in both closures takes the larger frequency.
    """
    atoms = sorted(set().union(*plus, *minus))
    if len(atoms) > 62:
        raise ValueError(f"{len(atoms)} atoms do not fit the int64 bit masks")
    bit = {p: k for k, p in enumerate(atoms)}
    rows: dict[int, float] = {}
    for qsets in (plus, minus):
        if qsets:
            for a, f in side_rows(qsets, bit).items():
                rows[a] = max(rows.get(a, 0.0), f)
    n = len(atoms) + 1
    masks = np.array(list(rows), dtype=np.int64)
    A_ub = -(((masks[:, None] >> np.arange(len(atoms))) & 1).astype(float))
    A_ub = np.hstack([A_ub, np.zeros((len(masks), 1))])
    b_ub = -np.array(list(rows.values()))
    c = np.zeros(n)
    if pair in bit:
        c[bit[pair]] = 1.0
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=np.ones((1, n)),
                      b_eq=[1.0], bounds=(0, None), method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
        out.append(sign * res.fun)
    return out[0], out[1]


def check_event_lps(identify_doc: Sequence[Mapping], qsets_by) -> list[str]:
    """p_lower/p_upper and infeasibility verdicts against HiGHS."""
    problems = []
    for block in identify_doc:
        pair = tuple(block["pair"])
        regime = block["regime"]
        rows = qsets_by.get((pair[0], regime), [])
        plus = [q for _, side, q in rows if side == "plus"]
        minus = [q for _, side, q in rows if side == "minus"]
        got = event_bounds_highs(plus, minus, pair)
        where = f"{pair}/{regime}"
        falsified = not block["falsification"]["passed"]
        if got is None and not falsified:
            problems.append(f"{where}: HiGHS finds the polytope empty, the "
                            f"program does not falsify")
        elif got is not None and falsified:
            problems.append(f"{where}: program falsified a polytope HiGHS "
                            f"solves")
        elif got is not None:
            lo, hi = block["p_lower"], block["p_upper"]
            if (lo is None or hi is None or abs(lo - got[0]) > LP_TOL
                    or abs(hi - got[1]) > LP_TOL):
                problems.append(f"{where}: p bounds [{lo}, {hi}], HiGHS "
                                f"[{got[0]}, {got[1]}]")
    return problems


# ---------------------------------------------------------------------------
# naive contrast


def window(scores: np.ndarray, cutoffs: Mapping[int, float], school: int,
           bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (plus, minus) of the open window around one cutoff,
    each half shrunk so that no other cutoff lies inside it."""
    cj = cutoffs[school]
    h_minus = h_plus = bandwidth
    for m, cm in cutoffs.items():
        if m == school or not math.isfinite(cm) or cm == cj:
            continue
        if cj - h_minus < cm < cj:
            h_minus = cj - cm
        elif cj < cm < cj + h_plus:
            h_plus = cm - cj
    inside = (scores > cj - h_minus) & (scores < cj + h_plus)
    return inside & (scores >= cj), inside & (scores < cj)


def naive_contrast(scores: np.ndarray, reports: Sequence[Sequence[int]],
                   y: np.ndarray, cutoffs: Mapping[int, float], pair: Pair,
                   bandwidth: float) -> float | None:
    """Mean outcome jump across the cutoff among students whose reported
    local pair is ``pair``; None when one side has no such student."""
    school = pair[0]
    plus, minus = window(scores, cutoffs, school, bandwidth)
    means = []
    for mask in (plus, minus):
        sel = []
        for i in np.nonzero(mask)[0].tolist():
            below, above = side_budgets(float(scores[i]), cutoffs, school)
            rol = reports[i]
            rep = (next((j for j in rol if j in above), OUTSIDE),
                   next((j for j in rol if j in below), OUTSIDE))
            if rep == pair:
                sel.append(i)
        if not sel:
            return None
        means.append(float(np.mean(y[sel])))
    return means[0] - means[1]


def check_naive(entries: Sequence[Mapping], statuses: Sequence[Mapping],
                own: Mapping[Pair, float | None]) -> list[str]:
    """Every ``naive_point`` of an analysed combination equals the
    benchmark's own contrast for its pair."""
    ok = {(tuple(s["pair"]), s["regime"], s["outcome"]) for s in statuses
          if s["status"] == "ok"}
    problems = []
    for e in entries:
        pair = tuple(e["pair"])
        if (pair, e["regime"], e["outcome"]) not in ok:
            continue
        got, want = e["naive_point"], own[pair]
        if (got is None) != (want is None) or (
                want is not None and abs(got - want) > TOL):
            problems.append(f"{pair}/{e['regime']}/{e['method']}: naive "
                            f"{got}, own contrast {want}")
    return problems


def check_studied_pair(entries: Sequence[Mapping], pair: Pair,
                       naive: float | None, truth: float) -> list[str]:
    """The naive contrast lies outside the pair's spo+umas sharp interval,
    and every interval of the pair holds the population truth up to
    ``TRUTH_Z`` standard errors of a difference of two binary means."""
    mine = [e for e in entries if tuple(e["pair"]) == pair]
    problems = []
    sharp = [e for e in mine if e["regime"] == "spo+umas"
             and e["method"] == "sharp-lp" and e["lower"] is not None]
    if not sharp or naive is None:
        problems.append(f"{pair}: no spo+umas sharp interval or no naive "
                        f"contrast")
    elif contains((sharp[0]["lower"], sharp[0]["upper"]), (naive, naive)):
        problems.append(f"{pair}: naive {naive} inside spo+umas sharp "
                        f"[{sharp[0]['lower']}, {sharp[0]['upper']}]")
    for e in mine:
        if e["lower"] is None:
            continue
        tol = TRUTH_Z * math.sqrt(0.25 / e["n_plus"] + 0.25 / e["n_minus"])
        if not contains((e["lower"], e["upper"]), (truth, truth), tol):
            problems.append(f"{pair}/{e['regime']}/{e['method']}: truth "
                            f"{truth} outside [{e['lower']}, {e['upper']}] "
                            f"by more than {tol:.4f}")
    return problems


# ---------------------------------------------------------------------------
# intervals


def contains(outer: tuple[float, float], inner: tuple[float, float],
             tol: float = TOL) -> bool:
    return outer[0] - tol <= inner[0] and inner[1] <= outer[1] + tol


def _interval(entry: Mapping) -> tuple[float, float] | None:
    if entry.get("lower") is None or entry.get("upper") is None:
        return None
    return (float(entry["lower"]), float(entry["upper"]))


def check_intervals(entries: Sequence[Mapping]) -> list[str]:
    """Sharp inside hm, and each regime chain nested, wherever both exist.

    ``entries`` are bounds.json rows: pair, regime, outcome, method, lower,
    upper.
    """
    by = {(tuple(e["pair"]), e["outcome"], e["regime"], e["method"]):
          _interval(e) for e in entries}
    problems = []
    for (pair, outcome, regime, method), iv in by.items():
        if method != "sharp-lp" or iv is None:
            continue
        hm = by.get((pair, outcome, regime, "hm"))
        if hm is not None and not contains(hm, iv):
            problems.append(f"{pair}/{regime}/{outcome}: sharp {iv} not "
                            f"inside hm {hm}")
    for (pair, outcome, regime, method), iv in by.items():
        for tight, loose in CHAINS:
            if regime != tight or iv is None:
                continue
            outer = by.get((pair, outcome, loose, method))
            if outer is not None and not contains(outer, iv):
                problems.append(f"{pair}/{outcome}/{method}: {tight} {iv} "
                                f"not inside {loose} {outer}")
    return problems


# ---------------------------------------------------------------------------
# population truth


def population_truth(design: Design) -> float:
    """Exact outcome jump for the true-(school, fallback) subgroup."""
    cuts = design.cutoff_values()
    cj = cuts[design.school]
    below = {OUTSIDE} | {m for m, c in cuts.items() if c < cj}
    above = {OUTSIDE} | {m for m, c in cuts.items() if c <= cj}
    pair = (design.school, design.fallback)
    sides = []
    for is_plus, budget in ((True, above), (False, below)):
        mass = acc = 0.0
        for k in design.kinds:
            if (best_in(k.order, above), best_in(k.order, below)) != pair:
                continue
            attended = next((j for j in k.report_for(is_plus) if j in budget),
                            OUTSIDE)
            mass += k.mass
            acc += k.mass * k.probs[attended]
        if mass <= 0.0:
            raise ValueError(f"design has no mass with true pair {pair}")
        sides.append(acc / mass)
    return sides[0] - sides[1]
