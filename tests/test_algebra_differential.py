"""The brute-force evaluators against their frozen predecessors.

``reference_algebra`` keeps the interval and point evaluators as they were
when each walked the operators on its own, and the group merge as it was
when it re-merged members pair by pair. ``occurrences`` and
``occurrences_point`` must give exactly their results, bindings included,
and ``merge_group`` must give exactly theirs for members in any order.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import reference_algebra as ref
from helpers import random_expr, random_history

from reactor import Atomic, Not, Times
from reactor.algebra import merge_group, occurrences, occurrences_point

CASES = 3000


_KIDS = ("left", "right", "absent", "opener", "closer", "of")


def bind_atoms(expr, rng: random.Random, names=None):
    """``expr`` with most atoms binding a fresh ``?vN`` name (helpers'
    ``random_expr`` binds none)."""
    names = itertools.count(1) if names is None else names
    if isinstance(expr, Atomic):
        return Atomic(expr.type, f"v{next(names)}") if rng.random() < 0.7 else expr
    kids = {
        f.name: bind_atoms(getattr(expr, f.name), rng, names)
        for f in dataclasses.fields(expr)
        if f.name in _KIDS
    }
    return dataclasses.replace(expr, **kids)


def nodes(expr):
    yield expr
    for f in dataclasses.fields(expr):
        if f.name in _KIDS:
            yield from nodes(getattr(expr, f.name))


def disjoint_groups(occs, rng: random.Random):
    """A few groups of pairwise component-disjoint occurrences, each in a
    shuffled order."""
    pool = list(occs)
    for _ in range(3):
        rng.shuffle(pool)
        group, seen = [], set()
        for o in pool:
            if not (o.components & seen):
                group.append(o)
                seen |= o.components
        if group:
            yield group


def test_evaluators_match_frozen_reference():
    rng = random.Random(9)
    covered = {"bindings": 0, "not": 0, "times": 0, "simultaneous": 0, "groups": 0}
    for _ in range(CASES):
        h = random_history(rng)
        expr = bind_atoms(random_expr(rng), rng)
        kinds = {type(n) for n in nodes(expr)}
        covered["bindings"] += any(isinstance(n, Atomic) and n.var for n in nodes(expr))
        covered["not"] += Not in kinds
        covered["times"] += Times in kinds
        covered["simultaneous"] += len({e.time for e in h}) < len(h)

        got = occurrences(expr, h)
        assert got == frozenset(ref._eval(expr, h)), (expr, h)
        assert occurrences_point(expr, h) == frozenset(ref._eval_point(expr, h)), (
            expr,
            h,
        )
        for group in disjoint_groups(got, rng):
            covered["groups"] += len(group) > 1
            assert merge_group(group) == ref.merge_group(group), group
    assert all(n >= CASES // 10 for n in covered.values()), covered
