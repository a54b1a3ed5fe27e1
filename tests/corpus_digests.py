"""Print one line per seeded corpus form: the form, then the sha256 of
its eps-mode report.

The corpus is the 40 primitive forms <z1, z2, z3, -z4> drawn with
random.Random(405), z_i uniform in 1..20 (non-primitive draws skipped),
and each report is run_pipeline(q, 1.0).json_str().  Regenerate the
golden file only for a change that means to alter these reports:

    PYTHONPATH=src python tests/corpus_digests.py > tests/golden/corpus_eps.txt
"""

import hashlib
import math
import random

from qfbounds.forms import DiagForm
from qfbounds.pipeline import run_pipeline


def corpus(seed=405, size=40, z_max=20):
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        z = tuple(rng.randint(1, z_max) for _ in range(4))
        if math.gcd(*z) == 1:
            out.append((z[0], z[1], z[2], -z[3]))
    return out


if __name__ == "__main__":
    for cs in corpus():
        report = run_pipeline(DiagForm(cs), 1.0).json_str()
        print("%s %s" % (",".join(map(str, cs)), hashlib.sha256(report.encode()).hexdigest()))
