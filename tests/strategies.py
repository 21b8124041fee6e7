"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st


@st.composite
def dgp_dicts(draw, max_students: int, max_schools: int) -> dict:
    """A valid ``dgp`` config object: every reporting model and score mode,
    ``rational_floor`` on and off, margins of either sign, and the
    ``max_acceptable`` and ``all_acceptable`` rewrites."""
    J = draw(st.integers(1, max_schools))
    models = ["truth_topk", "belief_skip"] + (["adversarial"] if J >= 2 else [])
    reporting = {"model": draw(st.sampled_from(models)),
                 "noise_sd": draw(st.floats(0.0, 50.0)),
                 "margin": draw(st.floats(-40.0, 40.0)),
                 "rational_floor": draw(st.booleans()),
                 "adversarial_school": draw(st.none() | st.integers(1, J))}
    out = {"n_students": draw(st.integers(1, max_students)), "n_schools": J,
           "list_cap": draw(st.integers(1, J + 1)),
           "score_mode": draw(st.sampled_from(
               ["sd", "independent", "correlated"])),
           "outside_strength": draw(st.sampled_from([0.0, 1.0, 3.0])),
           "outcome": {"kind": draw(st.sampled_from(["binary",
                                                      "continuous"]))},
           "reporting": reporting, "seed": draw(st.integers(0, 2**16))}
    acceptability = draw(st.sampled_from(["drawn", "max", "all"]))
    if acceptability == "max":
        out["max_acceptable"] = draw(st.integers(1, J))
    elif acceptability == "all":
        out["all_acceptable"] = True
    return out
