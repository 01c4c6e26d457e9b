"""MineAPT (Algorithm 1) end-to-end on the toy Example-1 database."""
import dataclasses

import pytest

from repro.core.apt import materialize_apt
from repro.core.config import CajadeParams
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph, empty_join_graph
from repro.core.metrics import _sample_pred, brute_force_support, f1_sample, pt_sizes
from repro.core.mine import Explanation, StepTimer, mine_apt
from repro.core.schema_graph import fk_cond
from repro.substrate.provenance import PT_ID

T1 = {"season": "2015-16"}
T2 = {"season": "2012-13"}

OMEGA1 = JoinGraph(
    nodes=((PT_NODE, None), (1, "player_game_scoring")),
    edges=(
        JGEdge(
            PT_NODE,
            1,
            fk_cond(
                ("year", "year"), ("month", "month"), ("day", "day"),
                ("home", "home"),
            ),
            "game",
            "player_game_scoring",
        ),
    ),
)


@pytest.fixture(scope="module")
def params():
    # n_sel_attr is widened because the 9-row toy APT's date attributes
    # trivially separate the two seasons and would otherwise crowd out the
    # player/pts signal under the default 3-attribute budget.
    return CajadeParams(
        k=8, f1_samp=1.0, pat_samp=1.0, recall_threshold=0.2, n_sel_attr=8
    )


def mine(db, pt, jg, params):
    sample = f1_sample(pt, T1, T2, params.f1_samp, params.seed)
    return mine_apt(db, pt, jg, T1, T2, params, sample)


@pytest.fixture(scope="module")
def result(toy_db, toy_pt, params):
    return mine(toy_db, toy_pt, OMEGA1, params)


def test_returns_explanations(result):
    assert result.explanations
    assert all(isinstance(e, Explanation) for e in result.explanations)


def test_explanations_capped_at_k(result, params):
    assert len(result.explanations) <= params.k


def test_apt_stats_recorded(result):
    assert result.apt_rows == 8  # toy joins: 4 PT games → 8 player rows
    assert result.n_pattern_attrs > 0


def test_timings_cover_paper_steps(result):
    for step in (
        "Materialize APTs", "Feature Selection", "Gen. Pat. Cand.",
        "Sampling for F1", "F-score Calc.", "Refine Patterns",
    ):
        assert step in result.timer.times, step


def test_finds_curry_signal(result):
    """The planted Example-1 signal: Curry's points separate the seasons."""
    descs = [e.describe() for e in result.explanations]
    assert any("S. Curry" in d or "pts" in d for d in descs)


def test_supports_respect_recall_threshold(result, params):
    for e in result.explanations:
        assert e.recall >= params.recall_threshold


def test_explanations_have_valid_fscores(result):
    for e in result.explanations:
        assert 0.0 < e.fscore <= 1.0


def test_empty_apt_returns_no_explanations(toy_db, toy_pt, params):
    from repro.core.schema_graph import JoinCond

    cond = JoinCond(
        pairs=(("year", "year"),), consts=(("r", "player", "NOBODY"),)
    )
    jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_scoring")),
        edges=(JGEdge(PT_NODE, 1, cond, "game", "player_game_scoring"),),
    )
    res = mine(toy_db, toy_pt, jg, params)
    assert res.explanations == [] and res.apt_rows == 0


def test_pt_only_join_graph_mines_provenance_patterns(toy_db, toy_pt, params):
    res = mine(toy_db, toy_pt, empty_join_graph(), params)
    for e in res.explanations:
        for p in e.pattern.preds:
            assert p.attr.startswith("prov_")


def test_f1_sample_missing_a_side_scores_exactly(toy_db, toy_pt, params):
    # At rate 0.5 / seed 0 the hash sample keeps no 2012-13 win, so the
    # supports fall back to exact counts over all of PT.
    assert pt_sizes(toy_pt, T1, T2, 0.5, 0) == (3, 0)
    sampled = dataclasses.replace(params, f1_samp=0.5, seed=0)
    res = mine(toy_db, toy_pt, OMEGA1, sampled)
    assert res.explanations
    apt_pdf = materialize_apt(toy_db, toy_pt, OMEGA1).df.toPandas()
    pt_pdf = toy_pt.df.toPandas()
    for e in res.explanations:
        assert (e.support.n1, e.support.n2) == (3, 1)
        assert e.support == brute_force_support(
            apt_pdf, pt_pdf, toy_pt.group_cols, e.pattern, T1, T2
        )


def test_step_timer_merge():
    a, b = StepTimer(), StepTimer()
    a.times["x"] = 1.0
    b.times["x"] = 2.0
    b.times["y"] = 3.0
    a.merge(b)
    assert a.times == {"x": 3.0, "y": 3.0}


def test_partial_f1_sample_matches_brute_force(toy_db, toy_pt, params):
    # A seed whose F-score sample drops PT tuples but keeps both sides, and
    # a mining-sample cap that cuts into the ordered rows.
    seed = next(
        s for s in range(100)
        if 0 not in pt_sizes(toy_pt, T1, T2, 0.5, s)
        and sum(pt_sizes(toy_pt, T1, T2, 0.5, s)) < toy_pt.n_rows
    )
    sampled = dataclasses.replace(params, f1_samp=0.5, seed=seed, pat_samp_cap=6)
    res = mine(toy_db, toy_pt, OMEGA1, sampled)
    assert res.explanations and res.apt_rows == 8
    ids = set(toy_pt.df.filter(_sample_pred(0.5, seed)).toPandas()[PT_ID])
    apt_pdf = materialize_apt(toy_db, toy_pt, OMEGA1).df.toPandas()
    pt_pdf = toy_pt.df.toPandas()
    for e in res.explanations:
        assert e.support == brute_force_support(
            apt_pdf[apt_pdf[PT_ID].isin(ids)], pt_pdf[pt_pdf[PT_ID].isin(ids)],
            toy_pt.group_cols, e.pattern, T1, T2,
        )
