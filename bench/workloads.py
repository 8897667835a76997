"""Seeded operation lists for the four workloads, in whole rounds.

An operation is one ``lemnisub`` command line.  A run works through whole
rounds of its workload until ``--seconds`` have passed and at least
MIN_OPS operations were attempted (a traced run: TRACE_ROUNDS rounds).
Every round has the same make-up
(rules, anchors, fixed fault points, repeats), so the share of each kind
of operation, and of failed ones, is the same in every run however many
rounds it holds.  Only ``--seed`` changes which parameter points are
drawn.
"""

from __future__ import annotations

import copy
import math

import numpy as np

import reference as ref

# Seeded A, B stay within this bound: at |A| or |B| above about 0.99,
# verify's derivative cross-check fails on valid input (README, "Known
# fault"), and a point that fails only on some seeds would make the
# failed count vary.  The fault is measured through FAULT_POINTS instead.
AB_BOUND = 0.97

NAMES = ("threshold-sweep", "verify-batch", "falsify-campaign", "falsify-deep")
MIN_OPS = 100

# the exact anchor points of acceptance criteria 1-3: (rule, params, value)
ANCHORS = tuple(
    [("L1", {"A": 1.0, "B": 0.0, "k": k}, 2.0 ** ((k + 3.0) / 2.0))
     for k in (0.0, 1.0, 2.0, 3.0)]
    + [("L2", {"A": 1.0, "B": 0.0}, 1.0 + math.sqrt(2.0)),
       ("L9", {"A": 1.0, "B": 0.0, "D": 1.0, "E": 0.0}, 1.0)])

# valid parameters on which `lemnisub verify` exits 2 with "derivative
# cross-check deviates" (a pole of Q within 1e-3 of the circle); they do
# not depend on the seed, so each round fails on exactly these
FAULT_POINTS = (
    ("L9", {"A": -0.19149202174029467, "B": -0.9998703276536798,
            "D": -0.019169261523765302, "E": -0.4934766796486485,
            "beta": 1.571268828773606}),
)

# A traced run works through a fixed number of rounds instead, so that its
# work counts repeat exactly; about 20 s of untraced work on the
# reference host (README).
TRACE_ROUNDS = {"threshold-sweep": 6, "verify-batch": 18,
                "falsify-campaign": 20, "falsify-deep": 10}

FALSIFY_TRIALS = 2        # Schwarz draws per falsify-campaign command
DEEP_ORDER = 2048         # --order of falsify-deep
DEEP_TRIALS = 1


class Op:
    """One command line plus what the checks need to know about it."""

    __slots__ = ("kind", "rule", "params", "argv", "anchor", "fault",
                 "repeat_of", "deep_check")

    def __init__(self, kind, rule, params, extra=(), anchor=None, fault=False):
        self.kind = kind
        self.rule = rule
        self.params = dict(params)
        self.argv = [kind, "--lemma", rule] + [
            f"--{name}={value!r}" for name, value in self.params.items()
        ] + list(extra)
        self.anchor = anchor
        self.fault = fault
        self.repeat_of = None
        self.deep_check = False

    def again(self, index: int) -> "Op":
        """The same command again; ``index`` is the first one's place in the round."""
        twin = copy.copy(self)
        twin.repeat_of = index
        return twin


def draw_params(rule: str, rng: np.random.Generator) -> dict:
    """A uniform point of the rule's domain, A and B within AB_BOUND."""
    a, b = np.sort(rng.uniform(-AB_BOUND, AB_BOUND, 2))[::-1]
    d, e = np.sort(rng.uniform(-1.0, 1.0, 2))[::-1]
    k = rng.uniform(-0.99, 3.0)
    point = {"A": float(a), "B": float(b), "D": float(d), "E": float(e),
             "k": float(k)}
    return {name: point[name] for name in ref.USES[rule]}


def _beta_near_threshold(rule: str, p: dict, rng, lo: float, hi: float) -> float:
    base = ref.beta_star(rule, p) if ref.USES[rule] else 1.0
    if base is None:            # infeasible point (L8's cap): any beta
        base = 2.0
    return float(base * math.exp(rng.uniform(lo, hi)))


def rounds(name: str, seed: int):
    """Endless seeded rounds of a workload, each a list of Op."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    while True:
        yield _ROUND_BUILDERS[name](rng)


def _threshold_round(rng) -> list:
    ops = [Op("threshold", rule, p, anchor=value) for rule, p, value in ANCHORS]
    for _ in range(3):
        for rule in ref.MARGIN_RULES:
            ops.append(Op("threshold", rule, draw_params(rule, rng)))
    return ops


def _verify_round(rng) -> list:
    ops = [Op("verify", rule, p, fault=True) for rule, p in FAULT_POINTS]
    for _ in range(12):
        for rule in ref.RULES:
            p = draw_params(rule, rng)
            p["beta"] = _beta_near_threshold(rule, p, rng, -0.7, 0.7)
            ops.append(Op("verify", rule, p))
    # the first two drawn points again, for the byte-identity check
    ops.extend(ops[i].again(i) for i in (1, 2))
    return ops


def _falsify_round(rng, trials: int, order=None, points: int = 2) -> list:
    ops = []
    for _ in range(points):
        for rule in ref.RULES:
            p = draw_params(rule, rng)
            p["beta"] = _beta_near_threshold(rule, p, rng, 0.0, 0.7)
            extra = [f"--trials={trials}", f"--seed={int(rng.integers(2**31))}"]
            if order is not None:
                extra.append(f"--order={order}")
            ops.append(Op("falsify", rule, p, extra))
    # a fixed share of each round is rebuilt in full by the checks
    for i in rng.choice(len(ops), size=len(ops) // 4, replace=False):
        ops[i].deep_check = True
    return ops


_ROUND_BUILDERS = {
    "threshold-sweep": _threshold_round,
    "verify-batch": _verify_round,
    "falsify-campaign": lambda rng: _falsify_round(rng, FALSIFY_TRIALS),
    "falsify-deep": lambda rng: _falsify_round(rng, DEEP_TRIALS, DEEP_ORDER, 1),
}
