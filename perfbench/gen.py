"""Seeded inputs for the perfbench workloads.

Uses numpy only and imports nothing from kreinlab, so a change to the
program can never change the inputs it is given.  Every input is a pure
function of (seed, workload); `digest` hashes a pool so two runs can show
they fed the program the same data.

Run `python3 perfbench/gen.py --workload NAME --seed N` to print the digest.
"""
from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

# extend_dense: one round takes each entry of the dimension cycle once per
# case; the pool holds two rounds of distinct problems, reused cyclically.
# n = 96 fills two thirds of the cycle, so the median and the tail both fall
# among the n = 96 ops instead of on the cost step between two sizes.
EXTEND_DIMS = (64, 96, 96)
EXTEND_CASES = ("B", "C")
EXTEND_POOL_ROUNDS = 2
# solve_x_equation samples this many projection parameters in case B; case
# C has none and gets that many extra random parameters instead, so every
# op realizes the same number of extensions whatever its case.
EXTEND_PROJECTIONS = 3
EXTEND_RANDOM_X = 3

MODEL_DELTAS = (0.75, 1.0, 1.25, 1.5)
MODEL_VARIANTS = ("both_constraints", "chi_plus_zero")
MODEL_PAIRS = (32, 64, 128)

# (shift a, n_max) of the shifted Hermite families.  For a = 0.5 the cutoff
# stops at 16: from 24 up, FFT roundoff amplified by e^{2 a band} reaches
# the band gate of c_action_multiplier, which then refuses in-span vectors.
HERMITE_FAMILIES = ((0.25, 12), (0.25, 24), (0.25, 40), (0.5, 8), (0.5, 12), (0.5, 16))
# Grid (half-width, nodes) per cutoff: wide enough that |g_n| has decayed at
# the edge, fine enough that the shifted band fits.
HERMITE_GRIDS = {8: (12.0, 4096), 12: (12.0, 4096), 16: (12.0, 4096),
                 24: (14.0, 4096), 40: (20.0, 8192)}
ANHARMONIC_BETAS = (3.0, 4.0)
ANHARMONIC_WEIGHTS = ("x_over_1px2", "tanh")
ANHARMONIC_NMAX = (8, 16)

# The 2x2 worked problem from the README: J = diag(1, -1), T0 e1 = e2 / 2.
WORKED_PROBLEM = {
    "J": {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, -1.0], "im": [0.0] * 4},
    "T0_domain": {"rows": 2, "cols": 1, "re": [1.0, 0.0], "im": [0.0, 0.0]},
    "T0_action": {"rows": 2, "cols": 1, "re": [0.0, 0.5], "im": [0.0, 0.0]},
}


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _orthonormal_in(rng, basis: np.ndarray, k: int) -> np.ndarray:
    """k orthonormal columns spanning a random subspace of span(basis)."""
    q, _ = np.linalg.qr(basis @ _gaussian(rng, (basis.shape[1], k)))
    return q


def matrix_obj(m: np.ndarray) -> dict:
    """The problem-file matrix encoding (row-major re/im float lists)."""
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}


def random_x(rng, m: int) -> np.ndarray:
    """Random Hermitian 0 <= X < I on an m-dimensional defect space."""
    a = _gaussian(rng, (m, m))
    h = a @ a.conj().T
    h = 0.5 * (h + h.conj().T)
    return h / (np.linalg.norm(h, 2) + rng.uniform(0.05, 1.0))


def extension_problem(seed: int, index: int) -> dict:
    """One extension problem with the defect it must produce.

    J has a random signature; T is an anticommuting contraction of norm at
    most 0.9; the domain is a random J-invariant subspace whose orthogonal
    complement has n/4 dimensions, split evenly (case B) or 1:3 (case C)
    between H_+ and H_-.  For a strict contraction the defect space is that
    whole complement.
    """
    n = EXTEND_DIMS[index % len(EXTEND_DIMS)]
    case = EXTEND_CASES[(index // len(EXTEND_DIMS)) % len(EXTEND_CASES)]
    rng = _rng(seed, 1, index)
    m = n // 4
    p = int(rng.integers(3 * n // 8, 5 * n // 8 + 1))
    m_plus = m // 2 if case == "B" else int(rng.choice([m // 4, 3 * m // 4]))
    m_minus = m - m_plus
    u = _unitary(rng, n)
    plus, minus = u[:, :p], u[:, p:]
    j = plus @ plus.conj().T - minus @ minus.conj().T
    k = _gaussian(rng, (p, n - p))
    k *= 0.9 * rng.uniform(0.5, 1.0) / np.linalg.norm(k, 2)
    t = plus @ k @ minus.conj().T
    t = t + t.conj().T
    domain = np.hstack([_orthonormal_in(rng, plus, p - m_plus),
                        _orthonormal_in(rng, minus, n - p - m_minus)])
    return {
        "problem": {"J": j, "T0_domain": domain, "T0_action": t @ domain},
        "x_samples": [random_x(rng, m) for _ in range(
            EXTEND_RANDOM_X + (EXTEND_PROJECTIONS if case == "C" else 0))],
        "solve_seed": int(rng.integers(2 ** 31)),
        "expect": {"n": n, "defect_dim": m, "signature": [m_plus, m_minus],
                   "case": case},
    }


def extend_pool(seed: int) -> list[dict]:
    count = EXTEND_POOL_ROUNDS * len(EXTEND_DIMS) * len(EXTEND_CASES)
    return [extension_problem(seed, i) for i in range(count)]


def model_pool(seed: int) -> list[dict]:
    """Every (delta, variant, n_pairs) spec once, in seeded order."""
    specs = [{"delta": d, "variant": v, "n_pairs": n}
             for d in MODEL_DELTAS for v in MODEL_VARIANTS for n in MODEL_PAIRS]
    order = _rng(seed, 2).permutation(len(specs))
    return [specs[i] for i in order]


def quasibasis_pool(seed: int) -> list[dict]:
    """Every family once, each with seeded coefficients of an in-span
    vector used for the expansion and the two C-routes.  The order is fixed:
    a seeded order changes the allocation pattern and with it the peak RSS."""
    families = [{"kind": "hermite", "a": a, "n_max": n,
                 "half_width": HERMITE_GRIDS[n][0], "nodes": HERMITE_GRIDS[n][1]}
                for a, n in HERMITE_FAMILIES]
    families += [{"kind": "anharmonic", "beta": b, "weight": w, "n_max": n}
                 for b in ANHARMONIC_BETAS for w in ANHARMONIC_WEIGHTS
                 for n in ANHARMONIC_NMAX]
    rng = _rng(seed, 3)
    for fam in families:
        count = fam["n_max"] + 1
        fam["coeff"] = _gaussian(rng, count) / np.arange(1, count + 1)
    return families


def cli_pool(seed: int) -> list[dict]:
    """The README-sized CLI runs, in seeded order.  `verify` keeps its
    documented default seed; the other seeds come from the workload seed."""
    rng = _rng(seed, 4)
    cli_seed = str(int(rng.integers(1000)))
    runs = [
        ("extend", ["extend", "--input", "{problem}", "--seed", cli_seed]),
        ("solve-x", ["solve-x", "--input", "{problem}", "--seed", cli_seed]),
        ("classify-model", ["classify-model", "--delta", "1.25", "--variant", "both"]),
        ("classify-model", ["classify-model", "--delta", "0.8",
                            "--variant", "chi-plus-zero"]),
        ("quasi-basis.hermite", ["quasi-basis", "hermite", "--a", "0.5", "--nmax", "12"]),
        ("quasi-basis.anharmonic", ["quasi-basis", "anharmonic", "--beta", "4",
                                    "--nmax", "8"]),
        ("verify", ["verify"]),
    ]
    order = rng.permutation(len(runs))
    return [{"id": int(i), "name": runs[i][0], "argv": runs[i][1]} for i in order]


POOLS = {
    "extend_dense": extend_pool,
    "model_sweep": model_pool,
    "quasibasis_grid": quasibasis_pool,
    "cli_small": cli_pool,
}


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(json.dumps(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        h.update(json.dumps(obj).encode())


def digest(pool) -> str:
    h = hashlib.sha256()
    _feed(h, pool)
    return h.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(POOLS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(digest(POOLS[args.workload](args.seed)))


if __name__ == "__main__":
    main()
