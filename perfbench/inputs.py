"""Seeded input generators for the benchmark.

The benchmark makes its own inputs with :class:`random.Random` instead of
calling :mod:`repro.workloads`: the program side's generators (and the
``repro.util.rng`` they draw from) may change in a later commit, and the
parent and the change must be measured on the same inputs.  The shapes
mirror the ``uniform``, ``mh_stress`` and ``packed_small`` families and
the photolithography fab shift; every instance is emitted directly in the
``Instance.to_dict`` JSON format, and :func:`digest` fingerprints what a
run fed the program so two runs can prove they saw identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

Classes = List[List[int]]


def payload(classes: Sequence[Sequence[int]], m: int, name: str) -> dict:
    """An instance in the program's JSON format (jobs numbered in class
    order, class ids ``0..k-1``)."""
    jobs = []
    for cid, sizes in enumerate(classes):
        for size in sizes:
            jobs.append({"id": len(jobs), "size": size, "class_id": cid})
    return {"name": name, "num_machines": m, "jobs": jobs, "class_labels": {}}


def digest(obj) -> str:
    """Stable short fingerprint of a JSON-serializable input."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def uniform(rng: random.Random, m: int, k: int) -> Classes:
    """i.i.d. sizes 1..19, 1..4 jobs per class (the generic case)."""
    return [
        [rng.randint(1, 19) for _ in range(rng.randint(1, 4))]
        for _ in range(max(m + 1, k))
    ]


def mh_stress(rng: random.Random, k: int) -> Tuple[Classes, int]:
    """~48 % single-huge-job classes next to mid-size classes on
    ``m = 7k/10`` machines: Algorithm_3/2 opens a large M̄H set.  Has
    huge jobs, so it does not meet Algorithm_no_huge's precondition."""
    m = max(2, (7 * k) // 10)
    classes: Classes = []
    for _ in range(max(m + 1, k)):
        style = rng.random()
        if style < 0.48:
            classes.append([rng.randint(19, 21)])
        elif style < 0.96:
            target = rng.randint(13, 17)
            jobs = []
            while target > 0:
                size = min(target, rng.randint(3, 6))
                jobs.append(size)
                target -= size
            classes.append(jobs)
        else:
            classes.append([rng.randint(1, 4) for _ in range(rng.randint(1, 3))])
    return classes, m


def packed_small(rng: random.Random, k: int) -> Tuple[Classes, int]:
    """Class totals straddling the T/2 and 3T/4 thresholds while every
    job stays tiny, on ``m = 2k/3`` machines (no huge jobs)."""
    m = max(2, (2 * k) // 3)
    unit = 64
    weights = []
    for _ in range(max(m + 1, k)):
        style = rng.random()
        if style < 0.45:
            weights.append(rng.uniform(0.52, 0.70))
        elif style < 0.75:
            weights.append(rng.uniform(0.76, 0.98))
        else:
            weights.append(rng.uniform(0.18, 0.45))
    norm = m / sum(weights)
    classes: Classes = []
    for weight in weights:
        remaining = max(2, int(round(weight * norm * unit)))
        jobs = []
        while remaining > 0:
            size = min(remaining, rng.randint(1, unit // 8 - 1))
            jobs.append(size)
            remaining -= size
        classes.append(jobs)
    return classes, m


#: Lots queued per reticle in one fab shift.  The lot plan is fixed and
#: only exposure times are drawn: with random lot counts a few shifts
#: (19+ lots) take 10-50x the median EPTAS time.
FAB_LOTS = (6, 3, 2, 2, 1, 1, 1)
FAB_STEPPERS = 3
#: Exposure times come from one fixed catalog of shifts; the seed only
#: orders them.  EPTAS time per shift varies with CV ~0.85 across exposure
#: draws, and even permuting a shift's reticles and lots moves a run's
#: total by ~25 % (the MILP follows another branching path), so a set drawn
#: or permuted per seed would make the seed, not the code, set the figure.
FAB_CATALOG_SEED = 20230515


def fab_shift(rng: random.Random) -> Classes:
    """Photolithography shift: each reticle's lots need 45-89 (critical
    layer, 30 %) or 15-44 (routine layer) minutes of exposure."""
    return [
        [
            rng.randint(45, 89) if rng.random() < 0.3 else rng.randint(15, 44)
            for _ in range(lots)
        ]
        for lots in FAB_LOTS
    ]


def fab_shifts(rng: random.Random, count: int, prefix: str) -> List[dict]:
    """The first ``count`` catalog shifts, in an ``rng``-shuffled order."""
    catalog = random.Random(FAB_CATALOG_SEED)
    shifts = [
        payload(fab_shift(catalog), FAB_STEPPERS, f"{prefix}-{i:03d}")
        for i in range(count)
    ]
    rng.shuffle(shifts)
    return shifts


def small_uniform_pool(rng: random.Random, count: int) -> List[dict]:
    """Cheap interactive instances (~100-200 jobs each)."""
    pool = []
    for i in range(count):
        m = rng.randint(4, 12)
        pool.append(payload(uniform(rng, m, rng.randint(40, 80)), m, f"ui-{i:03d}"))
    return pool


def zipf_weights(count: int, exponent: float = 0.8) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def interactive_sequence(
    rng: random.Random, pool_size: int, length: int, algorithms: Sequence[str]
) -> List[Tuple[int, str]]:
    """``length`` (pool index, algorithm) draws with Zipf popularity."""
    weights = zipf_weights(pool_size)
    indices = rng.choices(range(pool_size), weights=weights, k=length)
    return [(index, rng.choice(list(algorithms))) for index in indices]


def sweep_instances(seed: int) -> Dict[str, dict]:
    """The sweep-disk instance set: one large instance per shape."""
    rng = random.Random(seed)
    classes_u = uniform(rng, 100, 8000)
    classes_mh, m_mh = mh_stress(rng, 6000)
    classes_ps, m_ps = packed_small(rng, 1500)
    return {
        "uniform": payload(classes_u, 100, "uniform"),
        "mh_stress": payload(classes_mh, m_mh, "mh_stress"),
        "packed_small": payload(classes_ps, m_ps, "packed_small"),
    }
