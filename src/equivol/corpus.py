"""The shipped scenario corpus.

One document per worked example of the supported theory plus derived
stress scenarios; every stability class and both group kinds appear.
Documents live as package data under ``equivol/scenarios`` in the format
described in the README (`group`, `g`, `factors`, `bundle`).
"""

from __future__ import annotations

import json
from importlib import resources

from .model import Scenario, scenario_from_dict

CORPUS_NAMES = (
    "p1_hyperplane",      # P^1, weights (1,-1), O(1): vol_mu = 1 for all mu
    "p1_square",          # same action, O(2): odd mu incompatible
    "p2_circle",          # P^2, weights (-1,1,1): regular, vol_mu = 1/2
    "p3_semistable",      # P^3, weights (0,1,1,1): semistable but no stable points
    "p3_last_coordinate", # P^3, weights (0,0,0,1): vol_mu = 1 for mu >= 0
    "p1_unstable",        # P^1, weights (1,2): unstable everywhere
    "p2_trivial",         # trivial action: vol_0 infinite
    "p3_balanced",        # P^3, weights (-1,-1,1,1): regular, vol_mu = 1/2
    "p2_skew",            # P^2, weights (-1,1,2): period 6, vol_mu = 1/6
    "p1p1_diag",          # rank-2 torus on P^1 x P^1, diagonal ample bundle
    "p2p1_product",       # product stress case, vol at even mu = 1
    "su2_p3",             # SU(2) on P^3 = P(V + V): vol_mu = (mu+1)^2
    "su2_p1",             # SU(2) on P(V): unstable everywhere
    "su2_p5",             # SU(2) on P^5 = P(V+V+V): vol_mu = (mu+1)^2/4
)


def scenario_path(name: str):
    """Filesystem path of a shipped scenario document."""
    return resources.files("equivol").joinpath("scenarios", f"{name}.json")


def corpus_scenario(name: str) -> Scenario:
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus scenario {name!r}; known: {', '.join(CORPUS_NAMES)}")
    with scenario_path(name).open() as fh:
        return scenario_from_dict(json.load(fh))


def default_corpus() -> list[tuple[str, Scenario]]:
    return [(name, corpus_scenario(name)) for name in CORPUS_NAMES]
