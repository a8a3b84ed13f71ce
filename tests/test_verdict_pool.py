"""The verdict-identity pool: every verdict of the benchmark problems, pinned.

The pool is the 48 `extend_dense` problems of seeds 1, 2, 3 and 20261017
(12 per seed, n <= 96) with the 336 X the `extend` pipeline realizes on
them (the elementary X, the seeded projections and the pool's random X),
and the 24 `model_sweep` specs.  `verdict_pool.json` holds one row per record:
a "digest" row with `gen.digest` of every pool, so that a change of the
generator shows as a digest mismatch rather than as changed verdicts; a
"problem" row with the case, `defect_dim` and signature; an "x" row with
`anticommuting`, `extremal`, `cayley_defined` and `density_test`'s verdict;
and a "spec" row with the truncated and predicted defect, the analytic case,
the trend verdict and each truncation's density flag.

The inputs come from `perfbench/gen.py`, loaded by path.  A change that
means to move a pooled verdict rewrites the fixture with

    PYTHONPATH=src python tests/test_verdict_pool.py --write

and names each changed entry and its reason.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import oracles as ref
from kreinlab.angular import PartialContraction
from kreinlab.extensions import (
    classify_case,
    density_test,
    extension_from_x,
    extremality_test,
    krein_interval,
    solve_x_equation,
)
from kreinlab.sequence_model import (
    SequenceModelSpec,
    build_model,
    classify_analytic,
    defect_prediction,
    truncated_density_sweep,
    xi_preimage_diagnostic,
)
from kreinlab.spaces import SignatureSpace

FIXTURE = Path(__file__).resolve().parent / "verdict_pool.json"
SEEDS = (1, 2, 3, 20261017)


def _problem_rows(gen, seed: int, index: int, item) -> list:
    """The `extend` pipeline's verdicts on one pool problem: a "problem" row,
    then one "x" row per realized extension."""
    prob = item["problem"]
    t0 = PartialContraction(SignatureSpace(prob["J"]), prob["T0_domain"], prob["T0_action"])
    iv = krein_interval(t0)
    sols = solve_x_equation(iv, seed=item["solve_seed"],
                            n_projection_samples=gen.EXTEND_PROJECTIONS)
    labeled = [("elementary", sols.elementary)]
    labeled += [(f"projection_{i}", x) for i, x in enumerate(sols.projections)]
    labeled += [(f"random_{i}", x) for i, x in enumerate(item["x_samples"])]
    rows = [["problem", seed, index, classify_case(iv), iv.defect_dim, list(iv.signature)]]
    for label, x in labeled:
        choice = extension_from_x(iv, x)
        ext = extremality_test(t0, choice)
        # Every pooled Cayley verdict is certified from X, with no eigvalsh(T).
        assert choice.cayley_certificate is ext.cayley_defined
        rows.append(["x", seed, index, label, *map(bool, (
            choice.anticommuting, ext.extremal, ext.cayley_defined, density_test(t0, choice.t)))])
    return rows


def _spec_row(item) -> list:
    """The `model_sweep` verdicts on one sequence-model spec."""
    spec = SequenceModelSpec(item["delta"], item["variant"], item["n_pairs"])
    iv = krein_interval(build_model(spec).t0)
    pred = defect_prediction(spec)
    diag = xi_preimage_diagnostic(spec, max_exponent=16)
    sweep = truncated_density_sweep(spec, exponents=(3, 4, 5, 6))
    return ["spec", item["delta"], item["variant"], item["n_pairs"], classify_case(iv),
            iv.defect_dim, list(iv.signature), classify_analytic(spec),
            [pred.case, pred.dimension, list(pred.signature)], diag.verdict,
            bool(diag.marginal), [bool(s.domain_dense) for s in sweep]]


def pool_rows() -> list:
    """Every row of the fixture, in its order."""
    gen = ref.perfbench_gen()
    rows = []
    for seed in SEEDS:
        pool = gen.extend_pool(seed)
        rows.append(["digest", seed, "extend_dense", gen.digest(pool)])
        rows.append(["digest", seed, "model_sweep", gen.digest(gen.model_pool(seed))])
        for index, item in enumerate(pool):
            rows.extend(_problem_rows(gen, seed, index, item))
    # Every seed orders the same 24 specs differently; each is solved once.
    specs = sorted(gen.model_pool(SEEDS[0]), key=lambda s: (s["delta"], s["variant"], s["n_pairs"]))
    rows.extend(_spec_row(item) for item in specs)
    return rows


def test_pool_verdicts_match_the_fixture():
    want = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(pool_rows()))
    for g, w in zip(got, want):
        assert g == w
    assert len(got) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_verdict_pool.py --write")
    FIXTURE.write_text("[\n" + ",\n".join(map(json.dumps, pool_rows())) + "\n]\n")
    print(f"wrote {FIXTURE}")
