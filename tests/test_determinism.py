"""Explanations are a function of (data, query, params, seed): mining one
join graph must not depend on shuffle partitions or the join strategy."""
from repro.core.config import CajadeParams
from repro.core.join_graph import enumerate_join_graphs, is_valid
from repro.core.metrics import f1_sample
from repro.core.mine import mine_apt
from repro.data.nba import nba_schema_graph
from repro.substrate.provenance import compute_pt
from repro.workload import UQ_1

CONFIGS = [
    {"spark.sql.shuffle.partitions": p, "spark.sql.autoBroadcastJoinThreshold": b}
    for p in ("4", "64")
    for b in ("-1", str(10 * 1024 * 1024))
]


def test_mine_apt_ignores_partitions_and_join_strategy(spark, nba_db):
    params = CajadeParams(n_edges=2, f1_samp=0.3, pat_samp=0.1, k=5, seed=0)
    pt = compute_pt(nba_db, UQ_1.query)
    # Two-edge graphs whose APTs fan PT out to hundreds or thousands of rows,
    # so the mining sample is a strict subset of the sided rows.
    jgs = [
        jg
        for jg in enumerate_join_graphs(nba_schema_graph(), UQ_1.query, 2)
        if jg.structure() in ("PT - play_for - player", "PT - player_salary - player")
        and is_valid(jg, nba_db, pt.n_rows, params.q_cost)
    ]
    sample = f1_sample(pt, UQ_1.t1, UQ_1.t2, params.f1_samp, params.seed)
    assert sample.rate < 1.0 and len(jgs) == 2
    saved = {k: spark.conf.get(k) for k in CONFIGS[0]}
    outputs = []
    try:
        for conf in CONFIGS:
            for k, v in conf.items():
                spark.conf.set(k, v)
            outputs.append([
                [(e.describe(), e.support) for e in mine_apt(
                    nba_db, pt, jg, UQ_1.t1, UQ_1.t2, params, sample
                ).explanations]
                for jg in jgs
            ])
    finally:
        for k, v in saved.items():
            spark.conf.set(k, v)
    assert any(outputs[0])
    for conf, out in zip(CONFIGS[1:], outputs[1:]):
        assert out == outputs[0], conf
