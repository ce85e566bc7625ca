"""The layered-schedule integer program (Section 4.2), in capacity form.

The paper formulates a *module configuration IP* with a variable ``x_K``
per machine configuration (a set of non-overlapping windows) — solvable via
N-fold integer programming.  We use an equivalent, dramatically smaller
formulation (see DESIGN.md): because windows are **intervals** over layers
and interval graphs are perfect, ``m`` configurations covering a window
multiset exist *iff* every layer is covered at most ``m`` times.  Hence:

* variables ``y[c, (ℓ, u)] ∈ Z≥0`` — windows of length ``u`` starting at
  layer ``ℓ`` reserved for class ``c`` (the paper's ``y^{(c)}_{ℓ,p}``);
* (3) per class and length: ``Σ_ℓ y = n^{(c)}_u``;
* (4) per class and layer: at most one covering window (resource conflict);
* (1)+(2) collapsed: per layer, at most ``m`` covering windows.

Deciding a makespan guess is certificate-first:
:func:`certify_window_ip` builds a McNaughton wrap-around packing and
returns it only when :func:`assignment_satisfies` accepts it, which
proves feasibility without a solver.  When it misses, feasibility is
decided exactly — by HiGHS branch & bound (``scipy.optimize.milp``,
substituting for the paper's N-fold solver) as the paper's pure
feasibility problem (``compress=False``), or by a pure-Python
backtracking search used for cross-checks and environments without
SciPy.  The compression objective (``compress=True``) is an
optimisation on top of feasibility; the EPTAS runs it once, for the
winning guess only.  The machine patterns are recovered afterwards by
greedy interval coloring (:mod:`repro.ptas.coloring`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import InfeasibleError, PreconditionError
from repro.obs import get_tracer
from repro.ptas.layers import RoundedInstance

try:
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    _HAVE_MILP = True
except ImportError:  # pragma: no cover - scipy present in CI
    _HAVE_MILP = False

__all__ = [
    "Window",
    "WindowAssignment",
    "WindowIPSkeleton",
    "assignment_satisfies",
    "certify_window_ip",
    "solve_window_ip",
    "solve_window_ip_milp",
    "solve_window_ip_backtracking",
]

Window = Tuple[int, int]  # (start layer, length in layers)


@dataclass
class WindowAssignment:
    """A feasible solution: per class, the list of reserved windows."""

    windows: Dict[int, List[Window]] = field(default_factory=dict)

    def all_windows(self) -> List[Tuple[int, Window]]:
        """Flat ``(class_id, window)`` list sorted by start layer."""
        flat = [
            (cid, window)
            for cid, wins in sorted(self.windows.items())
            for window in wins
        ]
        flat.sort(key=lambda item: (item[1][0], -item[1][1], item[0]))
        return flat

    def layer_loads(self, num_layers: int) -> List[int]:
        loads = [0] * num_layers
        for _, (start, units) in self.all_windows():
            for layer in range(start, start + units):
                loads[layer] += 1
        return loads


def _window_starts(L: int, u: int) -> range:
    if u > L:
        return range(0)
    return range(0, L - u + 1)


def assignment_satisfies(
    rounded: RoundedInstance, assignment: WindowAssignment
) -> bool:
    """Exact feasibility check of ``assignment`` against ``rounded``.

    True iff the assignment covers every demanded window count exactly
    (constraint (3)), every window lies within the ``L``-layer horizon,
    no two windows of one class overlap (constraint (4)), and no layer
    is covered more than ``m`` times (constraints (1)+(2)).  ``O(W + L)``
    — this is the proof check of the incremental EPTAS: it accepts
    :func:`certify_window_ip` packings and re-checks memoized
    assignments, so neither needs a solver.
    """
    L = rounded.grid.num_layers
    m = rounded.num_machines
    if set(assignment.windows) - set(rounded.unit_counts):
        return False
    coverage = [0] * (L + 1)
    for cid, counts in rounded.unit_counts.items():
        wins = assignment.windows.get(cid, [])
        got: Dict[int, int] = {}
        for start, u in wins:
            if start < 0 or u <= 0 or start + u > L:
                return False
            got[u] = got.get(u, 0) + 1
        if got != {u: n for u, n in counts.items() if n}:
            return False
        previous_end = 0
        for start, u in sorted(wins):
            if start < previous_end:  # same-class overlap
                return False
            previous_end = start + u
            coverage[start] += 1
            coverage[start + u] -= 1
    load = 0
    for layer in range(L):
        load += coverage[layer]
        if load > m:
            return False
    return True


def certify_window_ip(
    rounded: RoundedInstance,
) -> Optional[WindowAssignment]:
    """A solver-free feasibility certificate, or ``None`` on a miss.

    McNaughton's wrap-around rule at window granularity: the ``m``
    machine rows of ``L`` layers are filled one after another, classes
    in decreasing unit total (ties by class id).  On each row a class
    places every remaining window that still fits (longest first), and
    the rest wrap to the start of the next row.  One row never holds
    two overlapping windows, so at most ``m`` windows cover a layer; a
    class split across a row break conflicts with itself only when its
    two parts overlap in time.  The packing is accepted only when
    :func:`assignment_satisfies` holds, so a returned assignment is an
    exact proof of feasibility.  ``None`` proves nothing — the caller
    falls back to a solver.
    """
    L = rounded.grid.num_layers
    m = rounded.num_machines
    totals = {
        cid: sum(u * n for u, n in counts.items())
        for cid, counts in rounded.unit_counts.items()
    }
    assignment = WindowAssignment()
    row, pos = 0, 0
    for cid in sorted(totals, key=lambda c: (-totals[c], c)):
        pending = sorted(
            (u for u, n in rounded.unit_counts[cid].items() for _ in range(n)),
            reverse=True,
        )
        wins: List[Window] = []
        while pending:
            if row == m:
                return None
            deferred = []
            for u in pending:
                if pos + u <= L:
                    wins.append((pos, u))
                    pos += u
                else:
                    deferred.append(u)
            if deferred:
                if len(deferred) == len(pending) and pos == 0:
                    return None  # a window longer than the horizon
                row, pos = row + 1, 0
            pending = deferred
        if wins:
            assignment.windows[cid] = sorted(wins)
    if not assignment_satisfies(rounded, assignment):
        return None
    return assignment


class _ClassBlock:
    """The constraint-matrix contribution of one class, in local indices.

    Depends only on the class's ``{u: count}`` demand and the horizon
    ``L`` — not on the class id, the guess ``T`` or the machine count —
    so it is the guess-independent "skeleton" piece the incremental
    EPTAS caches across binary-search guesses.  Local variables are
    ordered ``(u ascending, start ascending)``, the exact enumeration
    order of the historical from-scratch build, so assembling blocks in
    sorted-class order reproduces the old matrix entry for entry.
    """

    __slots__ = ("nvar", "keys", "eq_rows", "cover", "hi", "obj", "bad_u")

    def __init__(self, counts: Mapping[int, int], L: int) -> None:
        self.keys: List[Window] = []  # (u, start) per local variable
        self.eq_rows: List[Tuple[range, float]] = []
        self.hi: List[float] = []
        self.obj: List[float] = []
        self.bad_u: Optional[int] = None
        for u in sorted(counts):
            starts = _window_starts(L, u)
            if not starts:
                self.bad_u = u
                break
            base = len(self.keys)
            count = float(counts[u])
            for start in starts:
                self.keys.append((u, start))
                self.hi.append(count)
                self.obj.append(float(start + u))
            self.eq_rows.append((range(base, base + len(starts)), count))
        self.nvar = len(self.keys)
        #: Per layer, the local variables whose window covers it (in
        #: local-index order, i.e. ``u`` ascending then start ascending).
        self.cover: List[List[int]] = [[] for _ in range(L)]
        if self.bad_u is None:
            for local, (u, start) in enumerate(self.keys):
                for layer in range(start, start + u):
                    self.cover[layer].append(local)


class WindowIPSkeleton:
    """Cross-guess cache of :class:`_ClassBlock` structures.

    Keyed by ``(sorted counts, L)``: between binary-search guesses most
    classes keep their window demands (the layer count ``L`` depends
    only on ``ε`` and ``δ``, and ``⌈p/g⌉`` moves only when the guess
    crosses a rounding boundary), so the MILP rebuild touches freshly
    changed classes only and re-offsets the cached rows for the rest.
    """

    def __init__(self) -> None:
        self._blocks: Dict[Tuple[Tuple[Tuple[int, int], ...], int], _ClassBlock] = {}
        self.hits = 0
        self.misses = 0

    def class_block(self, counts: Mapping[int, int], L: int) -> _ClassBlock:
        key = (tuple(sorted(counts.items())), L)
        block = self._blocks.get(key)
        if block is None:
            self.misses += 1
            block = _ClassBlock(counts, L)
            self._blocks[key] = block
        else:
            self.hits += 1
        return block


def solve_window_ip_milp(
    rounded: RoundedInstance,
    *,
    compress: bool = True,
    skeleton: Optional[WindowIPSkeleton] = None,
) -> WindowAssignment:
    """Exact feasibility via HiGHS; raises :class:`InfeasibleError`.

    ``compress=True`` (default) minimizes the total window completion
    ``Σ(ℓ+u)·y`` so the layered schedule packs toward time zero;
    ``compress=False`` reproduces the paper's pure feasibility problem,
    which is all a binary-search verdict needs (the EPTAS search falls
    back to it when :func:`certify_window_ip` misses).

    ``skeleton`` reuses per-class constraint blocks across calls (the
    incremental EPTAS passes one per solve).  The assembled matrix is
    identical with or without it — blocks only cache the enumeration —
    so warm and cold solves return the same assignment.
    """
    if not _HAVE_MILP:  # pragma: no cover
        raise PreconditionError("scipy.optimize.milp unavailable")
    L = rounded.grid.num_layers
    m = rounded.num_machines

    # Quick certificates.
    if rounded.total_units() > m * L:
        raise InfeasibleError("total units exceed machine-layer capacity")

    blocks: List[Tuple[int, Dict[int, int], _ClassBlock, int]] = []
    nvar = 0
    for cid, counts in sorted(rounded.unit_counts.items()):
        block = (
            skeleton.class_block(counts, L)
            if skeleton is not None
            else _ClassBlock(counts, L)
        )
        if block.bad_u is not None:
            raise InfeasibleError(
                f"class {cid}: window of {block.bad_u} layers exceeds "
                f"horizon {L}"
            )
        blocks.append((cid, counts, block, nvar))
        nvar += block.nvar
    if nvar == 0:
        # Everything was simplified away (no big jobs, no placeholders):
        # the empty window assignment is trivially feasible.
        return WindowAssignment()

    tracer = get_tracer()
    with tracer.span("eptas.ip_assemble", nvar=nvar) as span:
        A, row_lb, row_ub, hi, objective = _assemble_milp(
            blocks, nvar, L, m, compress
        )
        span.set(rows=A.shape[0], nnz=A.nnz)
    with tracer.span(
        "eptas.ip_milp", nvar=nvar, rows=A.shape[0], nnz=A.nnz,
        compress=compress,
    ) as span:
        result = milp(
            c=objective,
            constraints=LinearConstraint(A, row_lb, row_ub),
            bounds=Bounds(np.zeros(nvar), hi),
            integrality=np.ones(nvar),
        )
        span.set(
            status=result.status,
            mip_node_count=getattr(result, "mip_node_count", None),
            mip_gap=getattr(result, "mip_gap", None),
        )
    if result.status == 2 or result.x is None:
        raise InfeasibleError("window IP infeasible")
    if result.status != 0:  # pragma: no cover - solver failure
        raise InfeasibleError(
            f"window IP solver status {result.status}: {result.message}"
        )

    assignment = WindowAssignment()
    for cid, counts, block, offset in blocks:
        for local, (u, start) in enumerate(block.keys):
            count = int(round(result.x[offset + local]))
            for _ in range(count):
                assignment.windows.setdefault(cid, []).append((start, u))
    for wins in assignment.windows.values():
        wins.sort()
    return assignment


def _assemble_milp(
    blocks: List[Tuple[int, Dict[int, int], _ClassBlock, int]],
    nvar: int,
    L: int,
    m: int,
    compress: bool,
):
    """The sparse constraint matrix, row bounds, variable upper bounds
    and objective of the window IP over the per-class ``blocks``."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    row_lb: List[float] = []
    row_ub: List[float] = []
    row = 0

    hi = np.zeros(nvar)

    # (3) per class and unit-length: counts match.
    for cid, counts, block, offset in blocks:
        hi[offset : offset + block.nvar] = block.hi
        for locals_, count in block.eq_rows:
            rows.extend([row] * len(locals_))
            cols.extend(offset + i for i in locals_)
            vals.extend([1.0] * len(locals_))
            row_lb.append(count)
            row_ub.append(count)
            row += 1

    # (4) per class and layer: no two class windows overlap.
    for cid, counts, block, offset in blocks:
        if sum(counts.values()) < 2:
            continue
        for layer in range(L):
            entries = block.cover[layer]
            if entries:
                rows.extend([row] * len(entries))
                cols.extend(offset + i for i in entries)
                vals.extend([1.0] * len(entries))
                row_lb.append(0.0)
                row_ub.append(1.0)
                row += 1

    # (1)+(2) collapsed: per layer, at most m covering windows.
    for layer in range(L):
        any_entries = False
        for cid, counts, block, offset in blocks:
            entries = block.cover[layer]
            if entries:
                rows.extend([row] * len(entries))
                cols.extend(offset + i for i in entries)
                vals.extend([1.0] * len(entries))
                any_entries = True
        if any_entries:
            row_lb.append(0.0)
            row_ub.append(float(m))
            row += 1

    # Objective: the IP is a pure feasibility problem in the paper; we
    # minimize the total window completion Σ (ℓ+u)·y to *compress* the
    # layered schedule toward time zero — feasibility is unaffected, but the
    # realized makespan tracks the packing instead of the horizon.
    if compress:
        objective = np.concatenate([block.obj for _, _, block, _ in blocks])
    else:
        objective = np.zeros(nvar)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(row, nvar))
    return A, row_lb, row_ub, hi, objective


def solve_window_ip_backtracking(
    rounded: RoundedInstance,
    *,
    node_budget: int = 200_000,
    hint: Optional[WindowAssignment] = None,
) -> WindowAssignment:
    """Pure-Python exact feasibility (for tiny grids and cross-checks).

    Depth-first search class by class: each class's windows are placed as a
    non-overlapping interval set (largest windows first, starts increasing),
    respecting the per-layer machine capacity.  Raises
    :class:`InfeasibleError` when the search space is exhausted.

    ``hint`` (a feasible assignment from a nearby makespan guess) only
    *reorders* each branch: starts that the hint used for the same class
    and window length are tried first, then the untried remainder of the
    natural range.  The candidate set per node is unchanged, so the
    search stays complete — a hinted solve can return a different (still
    feasible) assignment, which is why the incremental driver re-solves
    its winning guess cold before realizing the schedule.
    """
    L = rounded.grid.num_layers
    m = rounded.num_machines
    if rounded.total_units() > m * L:
        raise InfeasibleError("total units exceed machine-layer capacity")

    capacity = [m] * L
    class_order = sorted(
        rounded.unit_counts,
        key=lambda cid: -sum(
            u * n for u, n in rounded.unit_counts[cid].items()
        ),
    )
    # Remaining multiset of window lengths per class.
    remaining: Dict[int, Dict[int, int]] = {
        cid: dict(rounded.unit_counts[cid]) for cid in class_order
    }
    # Hint-preferred starts per (class, length), in ascending order.
    preferred: Dict[Tuple[int, int], List[int]] = {}
    if hint is not None:
        for cid, wins in hint.windows.items():
            for start, u in sorted(wins):
                preferred.setdefault((cid, u), []).append(start)
    assignment: Dict[int, List[Window]] = {cid: [] for cid in class_order}
    nodes = 0

    def candidate_starts(cid: int, u: int, min_start: int):
        """All starts in ``[min_start, L - u]`` — hint-preferred first."""
        pref = preferred.get((cid, u))
        if not pref:
            return range(min_start, L - u + 1)
        head = [p for p in pref if min_start <= p <= L - u]
        seen = set(head)
        return head + [
            s for s in range(min_start, L - u + 1) if s not in seen
        ]

    def place_class(ci: int, min_start: int) -> bool:
        """Place the remaining windows of class ``ci``; a class's windows
        are enumerated in increasing start order (WLOG, since they are
        pairwise disjoint), branching over which length starts next."""
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise InfeasibleError(
                f"backtracking exceeded {node_budget} nodes; use the MILP "
                "backend"
            )
        if ci == len(class_order):
            return True
        cid = class_order[ci]
        counts = remaining[cid]
        if not any(counts.values()):
            return place_class(ci + 1, 0)
        for u in sorted((u for u, n in counts.items() if n > 0), reverse=True):
            for start in candidate_starts(cid, u, min_start):
                if any(capacity[layer] == 0 for layer in range(start, start + u)):
                    continue
                for layer in range(start, start + u):
                    capacity[layer] -= 1
                counts[u] -= 1
                assignment[cid].append((start, u))
                if place_class(ci, start + u):
                    return True
                assignment[cid].pop()
                counts[u] += 1
                for layer in range(start, start + u):
                    capacity[layer] += 1
        return False

    if not place_class(0, 0):
        raise InfeasibleError("window IP infeasible (backtracking)")
    result = WindowAssignment()
    for cid, wins in assignment.items():
        if wins:
            result.windows[cid] = sorted(wins)
    return result


def solve_window_ip(
    rounded: RoundedInstance,
    *,
    backend: str = "auto",
    hint: Optional[WindowAssignment] = None,
    skeleton: Optional[WindowIPSkeleton] = None,
    compress: bool = True,
) -> WindowAssignment:
    """Dispatch to a backend (``"milp"``, ``"backtracking"``, ``"auto"``).

    ``hint`` warm-starts the backtracking backend (branch reorder only);
    ``skeleton`` and ``compress`` (the compression objective, see
    :func:`solve_window_ip_milp`) apply to the MILP backend only.  Each
    is ignored by the other backend, so callers can pass all of them.
    """
    if backend == "auto":
        backend = "milp" if _HAVE_MILP else "backtracking"
    if backend == "milp":
        return solve_window_ip_milp(
            rounded, compress=compress, skeleton=skeleton
        )
    if backend == "backtracking":
        return solve_window_ip_backtracking(rounded, hint=hint)
    raise PreconditionError(f"unknown IP backend {backend!r}")
