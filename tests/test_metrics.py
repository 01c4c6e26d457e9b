"""Quality metrics (Def. 7): Spark path vs pandas brute force, sampling."""
import pandas as pd
import pytest

from repro.core.apt import materialize_apt
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph
from repro.core.metrics import (
    Support,
    SupportEvaluator,
    brute_force_support,
    compute_support,
    f1_sample,
    pt_sizes,
    sided_rows,
)
from repro.core.pattern import Pattern, Predicate
from repro.core.schema_graph import fk_cond
from repro.substrate.catalog import Database
from repro.substrate.provenance import PT_ID, compute_pt

T1 = {"season": "2015-16"}
T2 = {"season": "2012-13"}

COND = fk_cond(
    ("year", "year"), ("month", "month"), ("day", "day"), ("home", "home")
)


OMEGA1 = JoinGraph(
    nodes=((PT_NODE, None), (1, "player_game_scoring")),
    edges=(JGEdge(PT_NODE, 1, COND, "game", "player_game_scoring"),),
)


@pytest.fixture(scope="module")
def apt(toy_db, toy_pt):
    return materialize_apt(toy_db, toy_pt, OMEGA1)


@pytest.fixture(scope="module")
def null_season(spark, toy_frames, toy_query):
    """The toy database plus one GSW win (with a Curry row) whose season is
    NULL: its provenance is on side 2 of a single-point question only.
    Returns (PT, Ω1's APT)."""
    game, pgs = toy_frames
    game = pd.concat([game, pd.DataFrame(
        [(2014, 3, 1, "GSW", "LAL", 100, 90, "GSW", None)], columns=game.columns
    )], ignore_index=True)
    pgs = pd.concat([pgs, pd.DataFrame(
        [(2014, 3, 1, "GSW", "S. Curry", 30)], columns=pgs.columns
    )], ignore_index=True)
    db = Database(spark)
    db.add("game", spark.createDataFrame(game), ("year", "month", "day", "home"))
    db.add(
        "player_game_scoring",
        spark.createDataFrame(pgs),
        ("year", "month", "day", "home", "player"),
    )
    pt = compute_pt(db, toy_query)
    return pt, materialize_apt(db, pt, OMEGA1)


def P(*preds):
    return Pattern(tuple(Predicate(a, op, v) for a, op, v in preds))


def support(apt, pt, pats, t1, t2, rate=1.0, seed=0):
    return compute_support(apt, f1_sample(pt, t1, t2, rate, seed), pats, t1, t2)


CURRY23 = P(("player_game_scoring_player", "=", "S. Curry"),
            ("player_game_scoring_pts", ">=", 23))


def test_support_metrics_math():
    s = Support(cov1=58, n1=73, cov2=21, n2=47)
    prec, rec, f1 = s.metrics(1)
    assert prec == pytest.approx(58 / 79)
    assert rec == pytest.approx(58 / 73)
    assert f1 == pytest.approx(2 / (1 / prec + 1 / rec))


def test_support_metrics_primary_2():
    s = Support(cov1=10, n1=20, cov2=5, n2=8)
    assert s.recall(2) == pytest.approx(5 / 8)
    assert s.precision(2) == pytest.approx(5 / 15)


def test_support_zero_division():
    s = Support(cov1=0, n1=0, cov2=0, n2=0)
    assert s.fscore(1) == 0.0


def test_pt_sizes(toy_pt):
    assert pt_sizes(toy_pt, T1, T2) == (3, 1)


def test_pt_sizes_single_point(toy_pt):
    # t2=None → complement side
    assert pt_sizes(toy_pt, T1, None) == (3, 1)


def test_curry_pattern_support(apt, toy_pt):
    """Hand-checked: Curry ≥23 pts covers 3/3 of 2015-16 wins, 0/1 of
    2012-13 wins (his 22-point DET game is below the threshold)."""
    (s,) = support(apt, toy_pt, [CURRY23], T1, T2)
    assert (s.cov1, s.n1, s.cov2, s.n2) == (3, 3, 0, 1)
    assert s.fscore(1) == pytest.approx(1.0)


def test_spark_matches_brute_force(null_season):
    pt, apt = null_season
    apt_pdf = apt.df.toPandas()
    pt_pdf = pt.df.toPandas()
    pats = [
        CURRY23,
        P(("player_game_scoring_player", "=", "K. Thompson")),
        P(("player_game_scoring_pts", "<=", 20)),
        P(("prov_game_home_pts", ">=", 100)),
        Pattern(),
    ]
    for t2 in (T2, None):
        spark_sup = support(apt, pt, pats, T1, t2)
        for p, s in zip(pats, spark_sup):
            b = brute_force_support(apt_pdf, pt_pdf, ("season",), p, T1, t2)
            assert s == b, (t2, p.describe())
    # Single-point: side 2 holds the 2012-13 win and the NULL-season win.
    assert spark_sup[-1] == Support(cov1=3, n1=3, cov2=2, n2=2)


def test_evaluator_matches_spark(null_season):
    pt, apt = null_season
    pats = [
        CURRY23,
        P(("player_game_scoring_pts", ">=", 14)),
        P(("player_game_scoring_player", "=", "D. Green")),
        Pattern(),
    ]
    for t2 in (T2, None):
        sample = f1_sample(pt, T1, t2)
        rows = sided_rows(apt, T1, t2, sample).toPandas()
        got = SupportEvaluator(rows, sample).supports(pats)
        assert got == compute_support(apt, sample, pats, T1, t2), t2


def test_coverage_counts_pt_tuples_not_apt_rows(apt, toy_pt):
    # The 2012-12-05 game fans out to 3 APT rows; a pattern matching all of
    # them covers ONE provenance tuple.
    p = P(("prov_game_day", "=", 5))
    (s,) = support(apt, toy_pt, [p], T2, T1)
    assert s.cov1 == 1


def test_empty_pattern_counts_joinable_tuples(apt, toy_pt):
    (s,) = support(apt, toy_pt, [Pattern()], T1, T2)
    # every toy PT tuple has at least one player row → full coverage
    assert (s.cov1, s.cov2) == (3, 1)


def test_single_point_question(apt, toy_pt):
    (s,) = support(apt, toy_pt, [CURRY23], T1, None)
    assert (s.cov1, s.n1, s.cov2, s.n2) == (3, 3, 0, 1)


def test_sampling_is_deterministic(apt, toy_pt):
    a = support(apt, toy_pt, [CURRY23], T1, T2, rate=0.5, seed=1)
    b = support(apt, toy_pt, [CURRY23], T1, T2, rate=0.5, seed=1)
    assert (a[0].cov1, a[0].n1) == (b[0].cov1, b[0].n1)


def test_sampling_shrinks_denominators(nba_db):
    from repro.substrate.provenance import compute_pt
    from repro.workload import Q_NBA4, UQ_1

    pt = compute_pt(nba_db, Q_NBA4)
    full = pt_sizes(pt, UQ_1.t1, UQ_1.t2)
    samp = pt_sizes(pt, UQ_1.t1, UQ_1.t2, f1_samp=0.3, seed=0)
    assert samp[0] <= full[0] and samp[1] <= full[1]


def test_batching_many_patterns(apt, toy_pt):
    pats = [P(("player_game_scoring_pts", ">=", k)) for k in range(0, 44)]
    sup = support(apt, toy_pt, pats, T1, T2)
    assert len(sup) == 44
    # monotone: higher threshold → fewer covered tuples
    covs = [s.cov1 for s in sup]
    assert covs == sorted(covs, reverse=True)


def test_empty_pattern_list(apt, toy_pt):
    assert support(apt, toy_pt, [], T1, T2) == []
