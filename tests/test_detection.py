"""Incremental detector: feeding, selection, consumption and expiry,
checked against the oracle."""

import random

import pytest

from reactor import (
    And,
    Atomic,
    ConsumptionPolicy,
    Detector,
    DetectorConfig,
    EventTypeId,
    InvalidConfig,
    InvalidExpression,
    Not,
    Or,
    OutOfOrderEvent,
    SelectionPolicy,
    Seq,
    Times,
    occurrences,
)
from reactor.algebra import occurrence_sort_key
from reactor.detection import _AnyNode, select_candidates

from helpers import TYPES, history, make_event, proj, random_expr, random_history

A, B, C, X = (Atomic(EventTypeId(t)) for t in "abcx")
ALL_MULTI = DetectorConfig(SelectionPolicy.ALL, ConsumptionPolicy.MULTIPLE)


def feed_all(det, h):
    """Feed a history; returns list of (event, detections)."""
    return [(e, det.feed(e)) for e in h]


def fired_proj(steps):
    return {
        (d.interval.start, d.interval.end,
         tuple(sorted(d.components)))
        for _, ds in steps
        for d in ds
    }


class TestConstruction:
    def test_empty_state(self):
        det = Detector(Seq(A, B), ALL_MULTI)
        assert det.retained == {}

    def test_invalid_expression_rejected(self):
        with pytest.raises(InvalidExpression):
            Detector(
                __import__("reactor").Any(3, (EventTypeId("a"), EventTypeId("b"))),
                ALL_MULTI,
            )

    @pytest.mark.parametrize(
        "config",
        [{"window": 3}, {}, "first", 0, SelectionPolicy.ALL,
         (SelectionPolicy.ALL, ConsumptionPolicy.MULTIPLE)],
        ids=["dict", "empty-dict", "str", "zero", "policy", "tuple"],
    )
    def test_config_that_is_no_detector_config_refused(self, config):
        # a dict used to build, and the first feed raised AttributeError
        with pytest.raises(InvalidConfig) as ei:
            Detector(Seq(A, B), config)
        assert isinstance(ei.value, ValueError)

    def test_no_config_means_the_defaults(self):
        assert Detector(Seq(A, B)).config == DetectorConfig()
        assert Detector(Seq(A, B), None).config == DetectorConfig()

    def test_type_names_are_every_type_the_expression_names(self):
        det = Detector(Or(Seq(A, Not(X, B, C)), Times(2, A)), ALL_MULTI)
        assert det.type_names == frozenset("abcx")

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(window=0)
        with pytest.raises(ValueError):
            DetectorConfig(window=-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"selection": "first"},  # a value, not the enum member, ran as all
            {"consumption": "single"},  # ran as multiple
            {"window": 0},
            {"window": 2.5},
            {"window": True},
            {"window": "5"},
        ],
    )
    def test_malformed_config_refused(self, kwargs):
        with pytest.raises(InvalidConfig) as ei:
            DetectorConfig(**kwargs)
        assert isinstance(ei.value, ValueError)


class TestFeed:
    def test_incremental_seq(self):
        det = Detector(Seq(A, B), ALL_MULTI)
        h = history(("a", 1), ("a", 2), ("b", 3))
        steps = feed_all(det, h)
        assert steps[0][1] == [] and steps[1][1] == []
        assert {
            (d.interval.start, d.interval.end)
            for d in steps[2][1]
        } == {(1, 3), (2, 3)}

    def test_type_mismatch_is_silent(self):
        det = Detector(Atomic(EventTypeId("a")), ALL_MULTI)
        assert det.feed(make_event("b", 1, id=1)) == []

    def test_irrelevant_types_not_retained(self):
        det = Detector(Seq(A, B), ALL_MULTI)
        det.feed(make_event("z", 1, id=1))
        assert det.retained == {}
        # but the watermark still advanced
        with pytest.raises(OutOfOrderEvent):
            det.feed(make_event("a", 0, id=2))

    def test_time_regression_rejected(self):
        det = Detector(A, ALL_MULTI)
        det.feed(make_event("a", 5, id=1))
        with pytest.raises(OutOfOrderEvent):
            det.feed(make_event("a", 4, id=2))

    def test_stale_id_rejected(self):
        det = Detector(A, ALL_MULTI)
        det.feed(make_event("a", 5, id=3))
        with pytest.raises(OutOfOrderEvent):
            det.feed(make_event("a", 5, id=3))
        with pytest.raises(OutOfOrderEvent):
            det.feed(make_event("a", 6, id=2))

    def test_detections_terminate_at_fed_event(self):
        rng = random.Random(21)
        for _ in range(50):
            h = random_history(rng)
            det = Detector(random_expr(rng), ALL_MULTI)
            for e in h:
                for d in det.feed(e):
                    assert d.terminator_id == e.id
                    assert e.id in d.components


class TestSelectCandidates:
    def setup_method(self):
        h = history(("a", 1), ("a", 2), ("b", 3))
        self.cands = sorted(
            occurrences(Seq(A, B), h),
            key=lambda o: o.initiator_time,
        )

    def test_first_takes_earliest_initiator(self):
        (sel,) = select_candidates(self.cands, SelectionPolicy.FIRST)
        assert sel.interval.start == 1

    def test_last_takes_latest_initiator(self):
        (sel,) = select_candidates(self.cands, SelectionPolicy.LAST)
        assert sel.interval.start == 2

    def test_all_keeps_everything_ordered(self):
        sel = select_candidates(list(reversed(self.cands)), SelectionPolicy.ALL)
        assert [o.interval.start for o in sel] == [1, 2]

    def test_empty_input(self):
        assert select_candidates([], SelectionPolicy.FIRST) == []

    def test_initiator_tie_breaks_by_id(self):
        h = history(("a", 1), ("a", 1), ("b", 3))
        cands = list(occurrences(Seq(A, B), h))
        (first,) = select_candidates(cands, SelectionPolicy.FIRST)
        (last,) = select_candidates(cands, SelectionPolicy.LAST)
        assert first.initiator_id == 1 and last.initiator_id == 2


class TestPolicyMatrix:
    """Stream a@1, a@2, b@3, b@4 against Seq(A, B)."""

    H = history(("a", 1), ("a", 2), ("b", 3), ("b", 4))

    def run(self, sel, con):
        det = Detector(Seq(A, B), DetectorConfig(sel, con))
        return [det.feed(e) for e in self.H]

    def test_first_single(self):
        # b@3 candidates [1,3],[2,3]; first -> [1,3], consumes a@1,b@3;
        # b@4 sees only a@2 -> [2,4]
        out = self.run(SelectionPolicy.FIRST, ConsumptionPolicy.SINGLE)
        spans = [[(d.interval.start, d.interval.end) for d in step] for step in out]
        assert spans == [[], [], [(1, 3)], [(2, 4)]]

    def test_last_single(self):
        # b@3 -> [2,3] consumed; a@1 survives for b@4 -> [1,4]
        out = self.run(SelectionPolicy.LAST, ConsumptionPolicy.SINGLE)
        spans = [[(d.interval.start, d.interval.end) for d in step] for step in out]
        assert spans == [[], [], [(2, 3)], [(1, 4)]]

    def test_all_multiple(self):
        # every candidate fires, nothing consumed: 2 at b@3, 2 at b@4
        out = self.run(SelectionPolicy.ALL, ConsumptionPolicy.MULTIPLE)
        spans = [[(d.interval.start, d.interval.end) for d in step] for step in out]
        assert spans == [[], [], [(1, 3), (2, 3)], [(1, 4), (2, 4)]]

    def test_all_single_is_greedy(self):
        # b@3: [1,3] fires and consumes, [2,3] is stale; b@4: [2,4]
        out = self.run(SelectionPolicy.ALL, ConsumptionPolicy.SINGLE)
        spans = [[(d.interval.start, d.interval.end) for d in step] for step in out]
        assert spans == [[], [], [(1, 3)], [(2, 4)]]


class TestConsume:
    def test_single_removes_components(self):
        det = Detector(Seq(A, B), DetectorConfig(SelectionPolicy.ALL, ConsumptionPolicy.SINGLE))
        h = history(("a", 1), ("b", 2))
        (_, (d,)) = feed_all(det, h)[-1]
        assert d.components == {1, 2}
        assert det.retained == {}

    def test_multiple_is_identity(self):
        det = Detector(Seq(A, B), ALL_MULTI)
        h = history(("a", 1), ("b", 2))
        (_, (d,)) = feed_all(det, h)[-1]
        assert d.components == {1, 2}
        assert set(det.retained) == {1, 2}

    def test_consumed_components_never_rematch(self):
        det = Detector(Seq(A, B), DetectorConfig(SelectionPolicy.ALL, ConsumptionPolicy.SINGLE))
        det.feed(make_event("a", 1, id=1))
        det.feed(make_event("b", 2, id=2))  # fires [1,2], consumes both
        assert det.feed(make_event("b", 3, id=3)) == []  # a@1 is gone


class TestExpire:
    # feeding a type no leaf names only moves the clock, so it shows what
    # the window alone drops

    def test_removes_events_older_than_threshold(self):
        # window 10: a@1 and a@11 are both within window while feeding;
        # at now=25 the threshold is 15, so both go
        det = Detector(Seq(A, B), DetectorConfig(window=10))
        det.feed(make_event("a", 1, id=1))
        det.feed(make_event("a", 11, id=2))
        assert det.feed(make_event("z", 25, id=3)) == []
        assert det.retained == {}

    def test_keeps_events_inside_window(self):
        det = Detector(Seq(A, B), DetectorConfig(window=10))
        det.feed(make_event("a", 20, id=1))
        assert det.feed(make_event("z", 25, id=2)) == []
        assert set(det.retained) == {1}

    def test_now_before_watermark_rejected(self):
        det = Detector(A, DetectorConfig(window=5))
        det.feed(make_event("a", 9, id=1))
        with pytest.raises(OutOfOrderEvent):
            det.feed(make_event("z", 8, id=2))

    def test_feed_expires_automatically(self):
        # by the time b@20 arrives, a@1 is outside the window and gone
        det = Detector(
            Seq(A, B), DetectorConfig(SelectionPolicy.ALL, ConsumptionPolicy.MULTIPLE, window=10)
        )
        det.feed(make_event("a", 1, id=1))
        assert det.feed(make_event("b", 20, id=2)) == []
        assert 1 not in det.retained

    def test_expired_events_cannot_open_not_blocks(self):
        # blocker x@2 expires before the closer arrives; pair a@12,b@14 fires
        det = Detector(
            Not(X, A, B),
            DetectorConfig(SelectionPolicy.ALL, ConsumptionPolicy.MULTIPLE, window=5),
        )
        det.feed(make_event("x", 2, id=1))
        det.feed(make_event("a", 12, id=2))
        fired = det.feed(make_event("b", 14, id=3))
        assert len(fired) == 1


class TestWindowedProperties:
    def test_fired_span_bounded_by_window(self):
        rng = random.Random(31)
        for _ in range(60):
            w = rng.randint(1, 5)
            det = Detector(
                random_expr(rng),
                DetectorConfig(SelectionPolicy.ALL, ConsumptionPolicy.MULTIPLE, window=w),
            )
            for e in random_history(rng, max_events=15):
                for d in det.feed(e):
                    span = d.interval.end - d.interval.start
                    assert span <= w

    def test_single_receive_exclusivity(self):
        rng = random.Random(32)
        for _ in range(60):
            det = Detector(
                random_expr(rng),
                DetectorConfig(SelectionPolicy.ALL, ConsumptionPolicy.SINGLE),
            )
            used = set()
            for e in random_history(rng):
                for d in det.feed(e):
                    comps = set(d.components)
                    assert not (comps & used)
                    used |= comps


class TestOracleEquivalence:
    def test_quick_fuzz(self):
        # the full 1000-trial version lives in the acceptance suite
        rng = random.Random(33)
        for _ in range(150):
            h = random_history(rng)
            expr = random_expr(rng)
            det = Detector(expr, ALL_MULTI)
            fed = fired_proj(feed_all(det, h))
            assert fed == proj(occurrences(expr, h)), (expr, h)

    def test_determinism(self):
        rng = random.Random(34)
        for _ in range(30):
            h = random_history(rng)
            expr = random_expr(rng)
            runs = []
            for _ in range(2):
                det = Detector(expr, ALL_MULTI)
                runs.append([
                    (e.id, sorted(
                        (d.interval.start, d.interval.end,
                         tuple(sorted(d.components)))
                        for d in det.feed(e)
                    ))
                    for e in h
                ])
            assert runs[0] == runs[1]


class TestNoRepeats:
    """Dedup runs only within one feed, so nothing may fire twice."""

    def fired_list(self, expr, h):
        det = Detector(expr, ALL_MULTI)
        return sorted(
            (d.interval.start, d.interval.end,
             tuple(sorted(d.components)))
            for e in h
            for d in det.feed(e)
        )

    def test_fuzz_fires_each_occurrence_once(self):
        rng = random.Random(35)
        for _ in range(150):
            h = random_history(rng)
            expr = random_expr(rng)
            want = sorted(proj(occurrences(expr, h)))
            assert self.fired_list(expr, h) == want, (expr, h)

    def test_or_of_same_type_fires_once(self):
        assert self.fired_list(Or(A, A), history(("a", 1))) == [(1, 1, (1,))]

    def test_two_derivations_fire_once(self):
        # {a,b,c} is both a + seq(b, c) and seq(a, b) + c
        expr = Seq(Or(A, Seq(A, B)), Or(Seq(B, C), C))
        h = history(("a", 1), ("b", 2), ("c", 3))
        assert self.fired_list(expr, h) == [(1, 3, (1, 2, 3)), (1, 3, (1, 3))]


def reference_feed(expr, h, config):
    """What each event fires, straight from the policy definitions and the
    oracle: expire, select among the occurrences the event terminates, and
    under single fire greedily over what is still visible."""
    visible, out = [], []
    for e in h:
        if config.window is not None:
            visible = [x for x in visible if x.time >= e.time - config.window]
        visible.append(e)
        cands = sorted(
            (o for o in occurrences(expr, visible) if o.terminator_id == e.id),
            key=occurrence_sort_key,
        )
        if config.selection is SelectionPolicy.FIRST:
            cands = cands[:1]
        elif config.selection is SelectionPolicy.LAST:
            cands = cands[-1:]
        if config.consumption is ConsumptionPolicy.SINGLE:
            fired = []
            for o in cands:
                if o.components <= {x.id for x in visible}:
                    fired.append(o)
                    visible = [x for x in visible if x.id not in o.components]
            cands = fired
        out.append(cands)
    return out


POLICY_CONFIGS = [
    DetectorConfig(sel, con, window)
    for sel in SelectionPolicy
    for con in ConsumptionPolicy
    for window in (None, 1, 3)
]


class TestPolicyOracle:
    """Every selection x consumption x window against reference_feed."""

    @pytest.mark.parametrize(
        "config",
        POLICY_CONFIGS,
        ids=lambda c: f"{c.selection.value}-{c.consumption.value}-window{c.window}",
    )
    def test_feed_matches_reference(self, config):
        rng = random.Random(36)
        for _ in range(500):
            h = random_history(rng)
            expr = random_expr(rng)
            det = Detector(expr, config)
            got = [det.feed(e) for e in h]
            assert got == reference_feed(expr, h, config), (expr, h)

    def test_consumed_blocker_no_longer_blocks(self):
        # c@2 fires the or's left branch and is consumed, so it must not
        # block not(c, a, b) at b@3: the prune has to reach the absent side
        expr = Or(C, Not(C, A, B))
        h = history(("a", 1), ("c", 2), ("b", 3))
        det = Detector(expr)
        fired = [[sorted(o.components) for o in det.feed(e)] for e in h]
        assert fired == [[], [[2]], [[1, 3]]]
        assert fired == [
            [sorted(o.components) for o in step]
            for step in reference_feed(expr, h, DetectorConfig())
        ]


class TestTimesScenario:
    def test_burst_fires_once_under_single(self):
        det = Detector(
            Times(4, Atomic(EventTypeId("outage"))),
            DetectorConfig(SelectionPolicy.FIRST, ConsumptionPolicy.SINGLE),
        )
        fires = [det.feed(make_event("outage", t, id=t)) for t in range(1, 6)]
        assert [len(f) for f in fires] == [0, 0, 0, 1, 0]


class TestRightSideState:
    """Under seq and not, every left occurrence a feed makes ends at the fed
    event, so no old right occurrence can follow it: the right child keeps
    nothing. and joins both ways and keeps both sides. Nothing is consumed
    and no window expires, so the kept sides hold every event of their type."""

    LAST_MULTI = DetectorConfig(SelectionPolicy.LAST, ConsumptionPolicy.MULTIPLE)

    def run(self, expr, n):
        det = Detector(expr, self.LAST_MULTI)
        events = (make_event("abc"[t % 3], t, id=t + 1) for t in range(n))
        fired = sum(len(det.feed(e)) for e in events)
        return det._root, fired

    @pytest.mark.parametrize("n", [150, 300])
    def test_seq_keeps_no_right_side(self, n):
        root, fired = self.run(Seq(A, B), n)
        assert (len(root.left.occs), len(root.right.occs)) == (n // 3, 0)
        assert fired == n // 3  # each b with the latest a

    @pytest.mark.parametrize("n", [150, 300])
    def test_not_keeps_no_closer(self, n):
        root, fired = self.run(Not(C, A, B), n)
        kept = len(root.absent.occs), len(root.left.occs), len(root.right.occs)
        assert kept == (n // 3, n // 3, 0)
        assert fired == n // 3  # each b with the a just before it

    @pytest.mark.parametrize("n", [150, 300])
    def test_and_keeps_both_sides(self, n):
        root, fired = self.run(And(A, B), n)
        assert (len(root.left.occs), len(root.right.occs)) == (n // 3, n // 3)
        assert fired == 2 * (n // 3) - 1  # every a but the first, and every b


def any_nodes(node):
    """The any nodes of a detector's state tree, root first."""
    found = [node] if isinstance(node, _AnyNode) else []
    for kid in node.kids:
        found += any_nodes(kid)
    return found


class TestAnyState:
    """An any keeps its members as occurrences in one kept leaf per listed
    type, and the tree's one prune walk removes them: after every feed each
    leaf holds exactly the retained events of its type, in arrival order, so
    a member consumed under single or expired by a window is gone."""

    @pytest.mark.parametrize(
        "config",
        POLICY_CONFIGS,
        ids=lambda c: f"{c.selection.value}-{c.consumption.value}-window{c.window}",
    )
    def test_leaves_hold_the_retained_events_of_their_type(self, config):
        rng = random.Random(15)
        shapes = {"root": 0, "nested": 0}
        dropped = 0  # members fed to a leaf and since pruned from it
        for _ in range(600):
            expr = random_expr(rng)
            det = Detector(expr, config)
            nodes = any_nodes(det._root)
            if not nodes:
                continue
            shapes["root" if nodes[0] is det._root else "nested"] += 1
            h = random_history(rng, max_events=16)
            for step, e in enumerate(h, start=1):
                det.feed(e)
                for node in nodes:
                    for leaf in node.kids:
                        held = [o.components for o in leaf.occs]
                        want = [
                            frozenset((eid,)) for eid, x in det.retained.items()
                            if x.type.name == leaf.type_name
                        ]
                        assert held == want, (expr, h[:step])
                        fed = sum(x.type.name == leaf.type_name for x in h[:step])
                        dropped += fed - len(held)
        assert shapes["root"] > 50 and shapes["nested"] > 100, shapes
        removes = config.consumption is ConsumptionPolicy.SINGLE or config.window
        assert (dropped > 0) == bool(removes)


def reference_retained(h, steps, config, type_names):
    """After each event, the ids that reference_feed's visible list still
    holds of the listed types: none expired, none fired under single."""
    consumed: set[int] = set()
    out = []
    for step, (e, fired) in enumerate(zip(h, steps)):
        if config.consumption is ConsumptionPolicy.SINGLE:
            consumed.update(*(o.components for o in fired))
        out.append([
            x.id for x in h[: step + 1]
            if x.type.name in type_names and x.id not in consumed
            and (config.window is None or x.time >= e.time - config.window)
        ])
    return out


class TestRetainedState:
    """``retained`` holds what selection, consumption and expiry can still
    read, as the reference does. An atomic expression under single fires
    and consumes its own event at once, so it retains nothing; under
    multiple it retains every event of its type until a window drops it."""

    @pytest.mark.parametrize(
        "config",
        POLICY_CONFIGS,
        ids=lambda c: f"{c.selection.value}-{c.consumption.value}-window{c.window}",
    )
    def test_atomic_root_matches_reference(self, config):
        rng = random.Random(23)
        kept = 0
        for _ in range(150):
            expr = Atomic(EventTypeId(rng.choice(TYPES)), rng.choice((None, "x")))
            h = random_history(rng, max_events=16)
            want = reference_feed(expr, h, config)
            retained = reference_retained(h, want, config, {expr.type.name})
            det = Detector(expr, config)
            for step, e in enumerate(h):
                assert det.feed(e) == want[step], (expr, h)
                assert list(det.retained) == retained[step], (expr, h[: step + 1])
                if config.consumption is ConsumptionPolicy.SINGLE:
                    assert not det.retained
                kept += len(det.retained)
        assert (kept > 0) == (config.consumption is ConsumptionPolicy.MULTIPLE)

    @pytest.mark.parametrize(
        "config",
        POLICY_CONFIGS,
        ids=lambda c: f"{c.selection.value}-{c.consumption.value}-window{c.window}",
    )
    def test_any_root_retains_what_the_reference_can_still_use(self, config):
        rng = random.Random(24)
        for _ in range(300):
            expr = random_expr(rng)
            h = random_history(rng)
            det = Detector(expr, config)
            retained = reference_retained(
                h, reference_feed(expr, h, config), config, det.type_names
            )
            for step, e in enumerate(h):
                det.feed(e)
                assert list(det.retained) == retained[step], (expr, h[: step + 1])
