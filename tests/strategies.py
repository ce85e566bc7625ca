"""Shared hypothesis strategies for MSRS property tests."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from repro.core.instance import Instance
from repro.ptas.layers import LayerGrid, RoundedInstance


@st.composite
def instances(
    draw,
    max_machines: int = 6,
    max_classes: int = 8,
    max_jobs_per_class: int = 4,
    max_size: int = 20,
    min_classes: int = 1,
):
    """Random MSRS instances with integer sizes."""
    m = draw(st.integers(1, max_machines))
    k = draw(st.integers(min_classes, max_classes))
    classes = [
        draw(
            st.lists(
                st.integers(1, max_size),
                min_size=1,
                max_size=max_jobs_per_class,
            )
        )
        for _ in range(k)
    ]
    return Instance.from_class_sizes(classes, m)


@st.composite
def tiny_instances(draw, max_jobs: int = 7, max_size: int = 8):
    """Instances small enough for the exact solvers."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    classes = []
    total = 0
    for _ in range(k):
        size = draw(st.integers(1, 3))
        size = min(size, max_jobs - total)
        if size <= 0:
            break
        classes.append(
            [draw(st.integers(1, max_size)) for _ in range(size)]
        )
        total += size
    if not classes:
        classes = [[draw(st.integers(1, max_size))]]
    return Instance.from_class_sizes(classes, m)


@st.composite
def no_huge_instances(draw, max_machines: int = 5, max_classes: int = 8):
    """Instances whose jobs are all small relative to the average load,
    so the standalone `Algorithm_no_huge` precondition usually holds."""
    m = draw(st.integers(1, max_machines))
    k = draw(st.integers(max(1, m), max_classes))
    classes = [
        draw(
            st.lists(st.integers(1, 6), min_size=2, max_size=5)
        )
        for _ in range(k)
    ]
    return Instance.from_class_sizes(classes, m)


def synthetic_rounded(unit_counts, num_layers, m):
    """A window IP built directly: ``{class: {units: count}}`` windows
    on an ``num_layers``-layer grid over ``m`` machines."""
    rounded = RoundedInstance(
        grid=LayerGrid(T=1, g=Fraction(1), num_layers=num_layers),
        num_machines=m,
    )
    rounded.unit_counts = {
        cid: dict(counts) for cid, counts in unit_counts.items()
    }
    return rounded


@st.composite
def rounded_instances(draw):
    """Random synthetic window IPs: a few classes of short windows on a
    small grid, some longer than the horizon or over capacity."""
    L = draw(st.integers(1, 10))
    m = draw(st.integers(1, 4))
    unit_counts = {}
    for cid in range(draw(st.integers(1, 5))):
        counts = draw(
            st.dictionaries(
                st.integers(1, L + 1), st.integers(1, 3), max_size=3
            )
        )
        if counts:
            unit_counts[cid] = counts
    return synthetic_rounded(unit_counts, L, m)
