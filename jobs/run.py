"""spark-submit entry point printing one evaluation table of the paper.

Usage: spark-submit jobs/run.py <table>

<table> is one of the keys of ``TABLES``. The session mirrors the pytest
session fixture (local[*], broadcast joins off), so a job prints the same
table its benchmark does.
"""
import os
import sys

from repro.experiments.baselines_exp import cape_table, et_comparison_table
from repro.experiments.cases import (
    case_study_table,
    user_study_tables,
    varying_queries_table,
)
from repro.experiments.common import format_table
from repro.experiments.runtime import (
    feature_selection_table,
    jg_size_table,
    scalability_table,
)
from repro.experiments.sampling import (
    apt_stats_table,
    f1_sampling_table,
    lca_sampling_table,
)


def _titled(result, title):
    """(rows, meta) → (rows, title with ``{}`` filled by meta)."""
    rows, meta = result
    return rows, title.format(meta)


def _et(spark):
    rows, meta = et_comparison_table(spark)
    patterns = [
        {"Num": f"Pattern {i + 1}", "Pattern": d}
        for i, d in enumerate(meta["et_top_patterns"])
    ]
    return [(rows, "Fig 11"), (patterns, "Table 10")]


# table → (spark → [(rows, title)]), printed in order.
TABLES = {
    "nba_case_study": lambda s: [(case_study_table(s, "nba")[0], "Table 4")],
    "mimic_case_study": lambda s: [(case_study_table(s, "mimic")[0], "Table 6")],
    "feature_selection": lambda s: [
        _titled(feature_selection_table(s, "nba"), "Fig 7a NBA {}"),
        _titled(feature_selection_table(s, "mimic"), "Fig 7 MIMIC {}"),
    ],
    "join_graph_size": lambda s: [_titled(jg_size_table(s, "nba"), "Fig 8 {}")],
    "scalability": lambda s: [
        _titled(scalability_table(s, "nba"), "Fig 9 NBA {}"),
        _titled(scalability_table(s, "mimic", sfs=(0.05, 0.1)), "Fig 9 MIMIC {}"),
    ],
    "sampling": lambda s: [
        (apt_stats_table(s)[0], "Fig 10a"),
        (lca_sampling_table(s)[0], "Fig 10b-e"),
        (f1_sampling_table(s)[0], "Fig 10f-g"),
    ],
    "et": _et,
    "varying_queries": lambda s: [(varying_queries_table(s)[0], "Fig 12")],
    "cape": lambda s: [(cape_table(s)[0], "Fig 13")],
    "user_study": lambda s: [
        _titled(user_study_tables(s), "Table 8 (Table 9 machinery: {})")
    ],
}


def get_spark():
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def main(argv):
    if len(argv) != 1 or argv[0] not in TABLES:
        sys.exit(f"usage: spark-submit jobs/run.py {{{'|'.join(TABLES)}}}")
    spark = get_spark()
    for rows, title in TABLES[argv[0]](spark):
        print(format_table(rows, title))


if __name__ == "__main__":
    main(sys.argv[1:])
