"""Seeded inputs of the two benchmark workloads.

The forms come from one fixed stream, the seeded corpus the ROADMAP
baseline uses (seed 405, z_i uniform in 1..20).  The run seed decides
what may vary without changing how much work a pass is: the call order.
A corpus drawn afresh from every run seed would not do: one seed's 40
forms take 5 s, another's 50 s, because single forms range from 0.02 s
to 39 s.  Nothing here imports qfbounds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

CORPUS_SEED = 405
CORPUS_SIZE = 40
Z_MAX = 20

SWEEP_EPS = (0.25, 0.5, 1.0, 2.0)
SWEEP_V = (1.0, 3.66, 10.0, 100.0)

WORKLOADS = ("corpus_eps", "presets_sweep")


def corpus() -> list[tuple[int, int, int, int]]:
    """The first CORPUS_SIZE primitive draws (z1, z2, z3, z4).

    Non-primitive draws are skipped: complementary_form rejects them by
    design, so they would only measure the error path.
    """
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < CORPUS_SIZE:
        z = tuple(rng.randint(1, Z_MAX) for _ in range(4))
        if math.gcd(*z) == 1:
            out.append(z)
    return out


def form_text(z) -> str:
    return "%d,%d,%d,%d" % (z[0], z[1], z[2], -z[3])


def build(workload: str) -> list[dict]:
    """Input specs in canonical order; each has 'index', 'kind' and its arguments.

    The run order is seeded separately by `order`.
    """
    if workload == "corpus_eps":
        return [
            {"index": i, "kind": "pipeline", "form": form_text(z), "eps": 1.0, "V": None}
            for i, z in enumerate(corpus())
        ]
    if workload == "presets_sweep":
        specs = [
            {"kind": "preset", "preset": "m306"},
            {"kind": "preset", "preset": "bianchi7"},
            {"kind": "cli", "argv": ["k-constant", "--preset", "m306", "--json"]},
            {"kind": "cli", "argv": ["verify-paper", "--json"]},
        ]
        for name in ("m306", "bianchi7"):
            for eps in SWEEP_EPS:
                for v in SWEEP_V:
                    specs.append({"kind": "preset_form", "preset": name, "eps": eps, "V": v})
        for i, spec in enumerate(specs):
            spec["index"] = i
        return specs
    raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))


def order(workload: str, seed: int, n: int) -> list[int]:
    """Seeded permutation of range(n): the order a pass makes its calls in."""
    perm = list(range(n))
    random.Random("%s:order:%d" % (workload, seed)).shuffle(perm)
    return perm


def digest(specs) -> str:
    """sha256 of the canonical JSON of the input specs, in the order given."""
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
