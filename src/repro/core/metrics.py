"""Pattern quality metrics (Def. 7): TP/FP/FN, precision, recall, F-score.

Coverage counts *distinct provenance tuples* — a PT tuple is covered when at
least one of its APT rows matches the pattern. ``SupportEvaluator`` is the
mining path: it scores patterns with numpy over the sided rows ``mine_apt``
collects. ``compute_support`` is the Spark evaluator, used by Table 8 and
by the tests as an independent cross-check: a two-stage aggregation,
per-(``__pt_id``, side) ``max(match_i)`` then a per-side ``sum``, one Spark
action per batch of patterns (one boolean column per pattern).

F-score sampling (λ_F1-samp) samples *PT tuples* (not APT rows) with a
deterministic hash so numerator and denominator stay consistent, and so that
the same sample is drawn across batches. ``sided`` is the one definition of
a row's question side and sample membership; ``f1_sample`` sizes the sample
(the recall denominators) once per question; ``sided_rows`` is the one
projection of an APT that ``mine_apt`` collects per join graph.

``brute_force_support`` is a pandas reference implementation used by tests
to validate both evaluators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F

from repro.substrate.provenance import PT_ID, ProvenanceTable
from repro.core.apt import APT
from repro.core.pattern import Pattern

_BATCH = 200  # patterns per Spark job; keeps codegen size bounded
SIDE = "__side"  # question side of a row: 1 (t1) or 2 (t2)
IN_F1 = "__in_f1"  # the row's PT tuple is in the F-score sample
MINE_KEY = "__mine_key"  # the row's PT-tuple hash that draws the mining sample


@dataclass(frozen=True)
class Support:
    """Relative support (v1, a1), (v2, a2) of a pattern for (t1, t2)."""

    cov1: int  # v1 — covered PT tuples of t1
    n1: int    # a1 — |PT(Q, D, t1)|
    cov2: int  # v2
    n2: int    # a2

    def __post_init__(self) -> None:
        # Coverage counts a subset of each side's provenance — a violation
        # means the APT's __pt_id values desynced from PT's (e.g. an
        # unstable tuple-id under recomputation), which silently corrupts
        # every metric. Fail loudly instead.
        if self.cov1 > self.n1 or self.cov2 > self.n2:
            raise ValueError(
                f"coverage exceeds provenance size: {self} — "
                "PT tuple ids are inconsistent between PT and APT"
            )

    def metrics(self, primary: int) -> tuple[float, float, float]:
        """(precision, recall, fscore) treating t1 (primary=1) or t2
        (primary=2) as the primary tuple of Def. 7."""
        tp, fp, n = (
            (self.cov1, self.cov2, self.n1)
            if primary == 1
            else (self.cov2, self.cov1, self.n2)
        )
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / n if n else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return prec, rec, f1

    def precision(self, primary: int = 1) -> float:
        return self.metrics(primary)[0]

    def recall(self, primary: int = 1) -> float:
        return self.metrics(primary)[1]

    def fscore(self, primary: int = 1) -> float:
        return self.metrics(primary)[2]


def _group_cond(group_cols: tuple[str, ...], t: dict[str, object]) -> Column:
    cond = F.lit(True)
    for k in group_cols:
        cond = cond & (F.col(k) == F.lit(t[k]))
    return cond


def _tuple_hash(seed: int, *salt: Column) -> Column:
    """A PT tuple's hash bucket in [0, 10⁴): every APT row of a tuple agrees."""
    return F.pmod(F.xxhash64(F.col(PT_ID), F.lit(seed), *salt), F.lit(10000))


def _sample_pred(rate: float | None, seed: int) -> Column | None:
    if rate is None or rate >= 1.0:
        return None
    return _tuple_hash(seed) < int(rate * 10000)


def sided(
    df: DataFrame,
    group_cols: tuple[str, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
    f1_samp: float | None = None,
    seed: int = 0,
) -> DataFrame:
    """The rows of ``df`` (PT or an APT) on a side of the question, with the
    side (1 or 2) in ``__side``, restricted to the PT tuples of the F-score
    sample. For single-point questions (t2 is None) side 2 is PT \\ PT(t1):
    every row not on side 1, including rows whose group value is NULL, as
    in :func:`brute_force_support`."""
    pred = _sample_pred(f1_samp, seed)
    if pred is not None:
        df = df.filter(pred)
    side = F.when(_group_cond(group_cols, t1), 1)
    if t2 is not None:
        side = side.when(_group_cond(group_cols, t2), 2)
    else:
        side = side.otherwise(2)
    return df.withColumn(SIDE, side).filter(F.col(SIDE).isNotNull())


def pt_sizes(
    pt: ProvenanceTable,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    f1_samp: float | None = None,
    seed: int = 0,
) -> tuple[int, int]:
    """(|PT(Q,D,t1)|, |PT(Q,D,t2)|) under the F-score sample."""
    agg = (
        sided(pt.df, pt.group_cols, t1, t2, f1_samp, seed)
        .select(
            *[
                F.sum(F.when(F.col(SIDE) == s, 1).otherwise(0)).alias(f"n{s}")
                for s in (1, 2)
            ]
        )
        .collect()[0]
    )
    return int(agg["n1"] or 0), int(agg["n2"] or 0)


@dataclass(frozen=True)
class F1Sample:
    """The PT tuples a question is scored on and the recall denominators
    (n1, n2) of Def. 7. Both depend only on the question, so ``explain``
    sizes the sample once and every join graph shares it."""

    rate: float  # λ_F1-samp actually used; 1.0 scores on all of PT
    seed: int
    n1: int
    n2: int


def f1_sample(
    pt: ProvenanceTable,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    rate: float = 1.0,
    seed: int = 0,
) -> F1Sample:
    """Size the λ_F1-samp sample of PT tuples. A sample that misses a side
    entirely would zero a recall denominator, so it falls back to exact
    counts over all of PT."""
    if rate < 1.0:
        n1, n2 = pt_sizes(pt, t1, t2, rate, seed)
        if n1 and n2:
            return F1Sample(rate, seed, n1, n2)
    return F1Sample(1.0, seed, *pt_sizes(pt, t1, t2))


def sided_rows(
    apt: APT,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    sample: F1Sample,
    obs: Observation | None = None,
) -> DataFrame:
    """The APT rows on a side of the question, projected to the mining-sample
    key ``__mine_key`` (a salted PT-tuple hash, independent of the F-score
    sample's), ``__pt_id``, ``__side``, the F-score-sample flag ``__in_f1``
    and the pattern columns. With ``obs``, the action that runs this plan
    also counts every APT row into ``obs.get["rows"]``."""
    df = apt.df
    if obs is not None:
        df = df.observe(obs, F.count(F.lit(1)).alias("rows"))
    in_f1 = _sample_pred(sample.rate, sample.seed)
    return sided(df, apt.group_cols, t1, t2).select(
        _tuple_hash(sample.seed, F.lit("pat-samp")).alias(MINE_KEY),
        PT_ID,
        SIDE,
        (F.lit(True) if in_f1 is None else in_f1).alias(IN_F1),
        *apt.pattern_cols,
    )


def compute_support(
    apt: APT,
    sample: F1Sample,
    patterns: list[Pattern],
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> list[Support]:
    """Evaluate the supports of many patterns in few Spark jobs."""
    if not patterns:
        return []
    df = sided(apt.df, apt.group_cols, t1, t2, sample.rate, sample.seed)
    out: list[Support] = []
    for lo in range(0, len(patterns), _BATCH):
        chunk = patterns[lo : lo + _BATCH]
        cols = [
            F.when(p.to_column(), 1).otherwise(0).alias(f"__m{i}")
            for i, p in enumerate(chunk)
        ]
        stage1 = (
            df.select(PT_ID, SIDE, *cols)
            .groupBy(PT_ID, SIDE)
            .agg(*[F.max(f"__m{i}").alias(f"__c{i}") for i in range(len(chunk))])
        )
        rows = (
            stage1.groupBy(SIDE)
            .agg(*[F.sum(f"__c{i}").alias(f"__c{i}") for i in range(len(chunk))])
            .collect()
        )
        cov = {int(r[SIDE]): r for r in rows}
        for i in range(len(chunk)):
            c1v = int(cov[1][f"__c{i}"]) if 1 in cov else 0
            c2v = int(cov[2][f"__c{i}"]) if 2 in cov else 0
            out.append(Support(cov1=c1v, n1=sample.n1, cov2=c2v, n2=sample.n2))
    return out


class SupportEvaluator:
    """Vectorised support evaluation over a collected APT projection.

    ``rows`` is :func:`sided_rows` on the driver; the evaluator keeps the
    rows of the F-score sample and scores each pattern with a numpy pass,
    without a Spark job — λ_F1-samp exists to make F-score calculation run
    on a bounded sample.
    """

    def __init__(self, rows: pd.DataFrame, sample: F1Sample) -> None:
        self.sample = sample
        self.pdf = rows[rows[IN_F1]].reset_index(drop=True)
        codes, uniques = pd.factorize(self.pdf[PT_ID])
        self._codes = codes
        self._n_ptids = len(uniques)
        self._side1 = (self.pdf[SIDE] == 1).to_numpy()
        self._side2 = (self.pdf[SIDE] == 2).to_numpy()

    @property
    def n_rows(self) -> int:
        return len(self.pdf)

    def support(self, pattern: Pattern) -> Support:
        mask = pattern.pandas_mask(self.pdf)
        cov = np.zeros(self._n_ptids, dtype=bool)
        cov[self._codes[mask & self._side1]] = True
        cov1 = int(cov.sum())
        cov[:] = False
        cov[self._codes[mask & self._side2]] = True
        cov2 = int(cov.sum())
        return Support(
            cov1=cov1, n1=self.sample.n1, cov2=cov2, n2=self.sample.n2
        )

    def supports(self, patterns: list[Pattern]) -> list[Support]:
        return [self.support(p) for p in patterns]


def brute_force_support(
    apt_pdf: pd.DataFrame,
    pt_pdf: pd.DataFrame,
    group_cols: tuple[str, ...],
    pattern: Pattern,
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> Support:
    """Reference implementation of Def. 7 over pandas frames (tests only)."""

    def side_mask(pdf: pd.DataFrame, t: dict[str, object]) -> pd.Series:
        m = pd.Series(True, index=pdf.index)
        for k in group_cols:
            m &= pdf[k] == t[k]
        return m

    m1_pt = side_mask(pt_pdf, t1)
    m2_pt = side_mask(pt_pdf, t2) if t2 is not None else ~m1_pt
    match = pattern.pandas_mask(apt_pdf)
    covered_ids = set(apt_pdf.loc[match, PT_ID])
    m1_apt = side_mask(apt_pdf, t1)
    m2_apt = side_mask(apt_pdf, t2) if t2 is not None else ~m1_apt
    cov1 = len(set(apt_pdf.loc[m1_apt, PT_ID]) & covered_ids)
    cov2 = len(set(apt_pdf.loc[m2_apt, PT_ID]) & covered_ids)
    return Support(
        cov1=cov1, n1=int(m1_pt.sum()), cov2=cov2, n2=int(m2_pt.sum())
    )
