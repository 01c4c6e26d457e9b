"""Why-provenance substrate (Def. 1) against hand-computed Example 1 values."""
import duckdb
import pytest

from repro.substrate.provenance import PT_ID, compute_pt, prov_col


def test_pt_size_is_filtered_rows(toy_pt):
    # Example 2: PT(Q1, D) = all games GSW won (4 of 5 toy games).
    assert toy_pt.n_rows == 4


def test_pt_columns_prefixed(toy_pt):
    assert "prov_game_winner" in toy_pt.prov_cols
    assert prov_col("game", "winner") == "prov_game_winner"


def test_group_col_exported(toy_pt):
    assert toy_pt.group_cols == ("season",)
    assert "season" in toy_pt.df.columns


def test_group_prov_twin_tracked(toy_pt):
    assert toy_pt.group_prov_cols == ("prov_game_season",)


def test_pt_ids_distinct(toy_pt):
    assert toy_pt.df.select(PT_ID).distinct().count() == toy_pt.n_rows


def test_pt_ids_stable_across_actions(toy_pt):
    a = sorted(r[PT_ID] for r in toy_pt.df.select(PT_ID).collect())
    b = sorted(r[PT_ID] for r in toy_pt.df.select(PT_ID).collect())
    assert a == b


def test_pt_contents_match_duckdb(toy_pt, toy_frames):
    game, _ = toy_frames
    got = sorted(
        (r["prov_game_winner"], r["prov_game_home"], r["season"])
        for r in toy_pt.df.collect()
    )
    expected = sorted(
        duckdb.sql(
            "SELECT winner, home, season FROM game WHERE winner='GSW'"
        ).fetchall()
    )
    assert got == expected


def test_self_join_query_uses_alias_prefixes(toy_db):
    from repro.substrate.query import AggQuery

    q = AggQuery(
        tables=(("game", "g1"), ("game", "g2")),
        join_conds=(("g1.season", "g2.season"),),
        group_by=(("g1.season", "season"),),
        agg="count(*)",
        agg_alias="c",
    )
    pt = compute_pt(toy_db, q)
    assert "prov_g1_winner" in pt.prov_cols
    assert "prov_g2_winner" in pt.prov_cols


def test_nba_pt_matches_duckdb(nba_db, nba_pandas):
    from repro.workload import Q_NBA4

    pt = compute_pt(nba_db, Q_NBA4)
    con = duckdb.connect()
    for n, f in nba_pandas.items():
        con.register(n, f)
    expected = con.execute(
        "SELECT count(*) FROM team t, game g, season s "
        "WHERE t.team_id = g.winner_id AND g.season_id = s.season_id "
        "AND t.team = 'GSW'"
    ).fetchone()[0]
    con.close()
    assert pt.n_rows == expected
