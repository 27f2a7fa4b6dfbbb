"""SHA-256 of the powerit estimators' output bytes on a fixed corpus.

    python3 results/read-out-memo/identity.py CHECKOUT

Imports satk from CHECKOUT/src and prints one digest per estimator
(``normalized_power``, ``yamamoto_limits``, ``vector_exponent_estimates``,
``convergence_study``) over 132 matrices: 120 acceptance instances of dims
2-8, scaled, singular, nilpotent and close-moduli inputs, DT-like matrices at
m = 16 and 32 (blocks of 2, and single steps), and 1 x 1 inputs,
each at n in (16, 100, 129, 1000, 4096) and on iterate's default schedule
and the custom one of ``results/records.py``.  Run it on two checkouts: equal
output means byte-identical estimates.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))

import numpy as np  # noqa: E402

from satk import powerit  # noqa: E402
from satk.instances import InstanceSpec, generate_instance  # noqa: E402

NS = (16, 100, 129, 1000, 4096)
SCHEDULES = ((16, 32, 64, 128, 256, 512, 1024, 2048, 4096), (8, 16, 32, 64, 100, 200))


def corpus():
    mats = [generate_instance(20000 + i, InstanceSpec(dim=2 + i % 7)).matrix for i in range(120)]
    tail = np.array([[1.0, 1.0], [0.0, 0.5]])
    singular = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    singular[3, 3] = 0.0
    mats += [c * tail for c in (1e200, 1e-200, 1e-40, 1e4)]
    mats += [singular, np.eye(3, k=1), np.array([[1.0, 1.0], [0.0, 0.99]])]
    mats += [np.array([[z]]) for z in (0.5, 2.0 + 1.0j, 0.0)]
    for m in (16, 32):
        rng = np.random.default_rng(m)
        eigs = np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
        g = rng.standard_normal((2, m, m))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        mats.append(q @ (np.diag(eigs) + np.triu(g[0] + 1j * g[1], 1) / 2.0) @ q.conj().T)
    return [np.asarray(a, dtype=np.complex128) for a in mats]


def main():
    digests = {name: hashlib.sha256() for name in ("normalized_power", "yamamoto_limits",
                                                    "vector_exponent_estimates", "convergence_study")}
    mats = corpus()
    rng = np.random.default_rng(0)
    for a in mats:
        m = a.shape[0]
        xs = np.column_stack([np.eye(m), rng.standard_normal(m) + 1j * rng.standard_normal(m)])
        for n in NS:
            digests["normalized_power"].update(powerit.normalized_power(a, n).tobytes())
            digests["yamamoto_limits"].update(powerit.yamamoto_limits(a, n).tobytes())
            digests["vector_exponent_estimates"].update(powerit.vector_exponent_estimates(a, xs, n).tobytes())
        for schedule in SCHEDULES:
            errors = powerit.convergence_study(a, schedule, np.zeros((m, m))).errors
            digests["convergence_study"].update(np.array(errors).tobytes())
    print(f"{len(mats)} matrices")
    for name, h in digests.items():
        print(name, h.hexdigest())


if __name__ == "__main__":
    main()
