"""Compare the crosscheck floats and the orbit logs of two checkouts.

    python3 results/shift-orbit/same_bytes.py PARENT_DIR CHANGE_DIR

Each checkout runs in its own fresh process.  It prints the ``repr`` of
``shift_power_crosscheck`` on eleven configs, and the bytes of
``powerit.orbit_log_norms`` on 40 random complex matrices (dims 1-6, scaled
by 10^k for k drawn from {0, +-3, +-100, -170, +-200, -300}, seed 5) with three
starting vectors each, at n = 1, 5, 16 and 100, and of
``vector_exponent_estimates`` on acceptance instances (seeds 0-199, dims
2-8) at n = 16, 64 and 128, for the basis and three random vectors.
Printed: every case whose
output differs, the scales drawn, and the number of cases.  Then a summary
of 3000 orbits at extreme scales (10^k, k uniform in (-310, 300)), where
columns leave the range of exact plain norms: how many differ, how many of
those held a nan at the first checkout, the largest difference of the
others in ulps, and how many hold a nan at the second.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import json
import numpy as np
from satk import powerit, shifts
from satk.instances import InstanceSpec, generate_instance
from satk.shifts import WeightSequence as W
out = {}
cases = [({"kind": "harmonic"}, 256, 32), ({"kind": "geometric", "ratio": 0.5}, 256, 32),
         ({"kind": "constant", "level": 1.0}, 256, 32), ({"kind": "blocks", "level": 2.0}, 256, 32),
         ({"kind": "geometric", "ratio": 0.3}, 400, 150), ({"kind": "blocks", "level": 2.0}, 400, 150),
         ({"kind": "constant", "level": 1.37}, 256, 32), ({"kind": "blocks", "level": 2.71}, 256, 32),
         ({"kind": "explicit", "values": tuple([1.0, 0.0] + [0.5] * 400)}, 256, 32),
         ({"kind": "geometric", "ratio": 0.9}, 64, 20), ({"kind": "harmonic"}, 64, 32)]
for kw, m, n in cases:
    out[f"crosscheck {kw['kind']} {kw.get('ratio', kw.get('level', ''))} ({m}, {n})"] = repr(
        shifts.shift_power_crosscheck(W(**kw), m, n))
rng = np.random.default_rng(5)
scales = []
for i in range(40):
    d = int(rng.integers(1, 7))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k = int(rng.choice([0, 0, 0, -3, 3, -100, 100, -170, -200, 200, -300]))
    scales.append(k)
    a *= 10.0**k
    v = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    for n in (1, 5, 16, 100):
        with np.errstate(all="ignore"):
            out[f"orbit {i} (10^{k}, dim {d}) n = {n}"] = powerit.orbit_log_norms(a, v, n).tobytes().hex()
out["scales"] = sorted(set(scales))
for seed in range(200):
    a = generate_instance(seed, InstanceSpec(dim=2 + seed % 7)).matrix
    m = a.shape[0]
    xs = np.concatenate([np.eye(m), np.random.default_rng(seed).standard_normal((m, 3))], axis=1)
    for n in (16, 64, 128):
        out[f"estimates seed {seed} n = {n}"] = powerit.vector_exponent_estimates(a, xs, n).tobytes().hex()
# extreme scales: 10^k for k uniform in (-310, 300), some entries of v
# shrunk by 1e-200, dims 1-8, n in 1..128
extreme = {}
rng = np.random.default_rng(11)
for i in range(3000):
    d = int(rng.integers(1, 9))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if rng.random() < 0.3:
        a = np.triu(a)
    if rng.random() < 0.3:
        a[rng.random((d, d)) < 0.4] = 0
    a *= 10.0 ** float(rng.uniform(-310, 300))
    v = rng.standard_normal((d, 4)) + 1j * rng.standard_normal((d, 4))
    v[rng.random((d, 4)) < 0.2] *= 1e-200
    n = int(rng.integers(1, 129))
    with np.errstate(all="ignore"):
        extreme[i] = powerit.orbit_log_norms(a, v, n).tolist()
print(json.dumps({"cases": out, "extreme": extreme}))
"""


def probe(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    text = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(text)


def main(parent, change):
    pa, ch = probe(Path(parent).resolve()), probe(Path(change).resolve())
    a, b = pa["cases"], ch["cases"]
    for key in a:
        if a[key] != b[key]:
            print(f"differs: {key}: {a[key]} -> {b[key]}")
    print(f"scales 10^k drawn, k in {a['scales']}")
    print(f"{len(a) - 1} cases, {sum(a[k] != b[k] for k in a)} differ")
    a, b = pa["extreme"], ch["extreme"]
    moved = [k for k in a if a[k] != b[k]]
    was_nan = [k for k in moved if any(math.isnan(x) for x in a[k])]
    is_nan = [k for k in a if any(math.isnan(x) for x in b[k])]
    finite = [(x, y) for k in moved if k not in was_nan for x, y in zip(a[k], b[k]) if x != y]
    ulps = max((abs(x - y) / math.ulp(x) for x, y in finite), default=0.0)
    print(f"extreme scales: {len(a)} cases, {len(moved)} differ: {len(was_nan)} held a nan at the parent, "
          f"the other {len(moved) - len(was_nan)} by at most {ulps:.0f} ulp in {len(finite)} logs; "
          f"{len(is_nan)} hold a nan at the change")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
