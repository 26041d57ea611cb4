"""Rewrite bench/expected_ladder.json from the routhkit in this checkout.

    python3 bench/make_expected.py

The stored digests pin the rendered Routh arrays, events, signs, verdicts
and Hurwitz minors of every degenerate-ladder input under every policy.
Regenerate them only from a commit whose renderings are known to be right;
a change that is meant to keep renderings byte-identical must pass against
the stored file unchanged.
"""

import json

from run import import_routhkit
from workloads import EXPECTED_LADDER, POLICIES, ladder_digest, ladder_inputs

rk = import_routhkit(with_cli=False)
expected = {}
for key, poly, _ in ladder_inputs(rk):
    for name in POLICIES:
        try:
            report = rk.routh.classify(poly, rk.routh.Policy(name))
        except rk.errors.PolicyUnsupported:
            report = None
        expected[f"{key}/{name}"] = ladder_digest(report, rk.hurwitz.hurwitz_stable(poly))
EXPECTED_LADDER.write_text(json.dumps(expected, indent=1) + "\n")
print(f"wrote {len(expected)} digests to {EXPECTED_LADDER}")
