"""MineAPT (Algorithm 1): top-k pattern mining for one join graph.

Phases, each timed under the step names the paper's runtime-breakdown
tables use (Fig. 7/7a/9c/9d):

  Materialize APTs   — build the APT for Ω and collect its sided rows
                       (``metrics.sided_rows``) in the graph's one Spark
                       action, which also counts the APT's rows.
  Feature Selection  — take the mining sample, cluster + RF-filter attrs.
  Gen. Pat. Cand.    — LCA candidates over categorical attributes.
  Sampling for F1    — build the evaluator frame from the collected rows of
                       the F-score sample (the sample itself and its
                       per-side sizes, the recall denominators, are fixed
                       once per question by ``explain``).
  F-score Calc.      — support evaluation of the candidate patterns.
  Refine Patterns    — numeric-predicate refinement rounds (Prop. 3.1
                       recall pruning; refinement evaluation cost is billed
                       here).

The mining sample is the rows whose PT-tuple key is below λ_pat-samp·10⁴
(all sided rows if under 20), in (key, ``__pt_id``, columns) order, capped.

Returns the diversity-ranked top-k explanations for both orientations of
the user question plus the per-step timings and APT stats.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import Observation

from repro.substrate.catalog import Database
from repro.substrate.provenance import ProvenanceTable
from repro.core.apt import materialize_apt
from repro.core.config import CajadeParams
from repro.core.feature_selection import filter_attrs
from repro.core.join_graph import JoinGraph
from repro.core.lca import lca_candidates
from repro.core.metrics import (
    MINE_KEY,
    SIDE,
    F1Sample,
    Support,
    SupportEvaluator,
    sided_rows,
)
from repro.core.pattern import Pattern
from repro.core.refine import numeric_fragments, refinements
from repro.core.topk import diverse_topk

STEP_NAMES = (
    "Feature Selection",
    "Gen. Pat. Cand.",
    "F-score Calc.",
    "Materialize APTs",
    "Refine Patterns",
    "Sampling for F1",
    "JG Enum.",
)

_BEAM = 60  # refinements carried to the next round (tractability cap)


class StepTimer:
    """Accumulates wall-clock seconds per named pipeline step."""

    def __init__(self) -> None:
        self.times: dict[str, float] = {}

    @contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    def merge(self, other: "StepTimer") -> None:
        for k, v in other.times.items():
            self.times[k] = self.times.get(k, 0.0) + v


@dataclass(frozen=True)
class Explanation:
    """(Ω, Φ, (v1, a1), (v2, a2)) with the chosen primary tuple (Def. 6)."""

    jg: JoinGraph
    pattern: Pattern
    primary: int  # 1 → t1 is primary, 2 → t2
    support: Support

    @property
    def fscore(self) -> float:
        return self.support.fscore(self.primary)

    @property
    def precision(self) -> float:
        return self.support.precision(self.primary)

    @property
    def recall(self) -> float:
        return self.support.recall(self.primary)

    def describe(self) -> str:
        return f"{self.pattern.describe()} [t{self.primary}]"


@dataclass
class MineResult:
    explanations: list[Explanation]
    timer: StepTimer
    apt_rows: int = 0
    n_pattern_attrs: int = 0
    n_candidates: int = 0


def mining_sample(rows: pd.DataFrame, rate: float, cap: int) -> pd.DataFrame:
    """The λ_pat-samp mining sample of ``rows``, the collected
    :func:`sided_rows` of an APT."""

    def first(df):  # the first ``cap`` rows in the order of all columns
        return df.sort_values(list(df.columns), na_position="first").head(cap)

    pdf = first(rows[rows[MINE_KEY] < int(rate * 10000)])
    if len(pdf) < 20:
        # Tiny APT: the rate sample is too small to mine from.
        pdf = first(rows)
    return pdf.reset_index(drop=True)


def mine_apt(
    db: Database,
    pt: ProvenanceTable,
    jg: JoinGraph,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    params: CajadeParams,
    sample: F1Sample,
) -> MineResult:
    """Mine one join graph. ``sample`` is the question's F-score sample
    (:func:`repro.core.metrics.f1_sample`), shared by all join graphs."""
    timer = StepTimer()

    with timer.step("Materialize APTs"):
        apt = materialize_apt(db, pt, jg)
        obs = Observation()
        rows = sided_rows(apt, t1, t2, sample, obs).toPandas()

    # With feature selection disabled ("Naive", §5.1) the mining sample is
    # still needed for LCA, so its cost is billed to candidate generation
    # and the breakdown tables report Feature Selection as N/A.
    fs_step = (
        "Feature Selection" if params.feature_selection else "Gen. Pat. Cand."
    )
    with timer.step(fs_step):
        mining = mining_sample(rows, params.pat_samp, params.pat_samp_cap)
        sample_pdf = mining[list(apt.pattern_cols)]
        fr = filter_attrs(
            sample_pdf,
            (mining[SIDE] == 1).to_numpy(dtype=int),
            params.n_sel_attr,
            enabled=params.feature_selection,
            seed=params.seed,
        )

    with timer.step("Gen. Pat. Cand."):
        cands = lca_candidates(sample_pdf, fr.cat_attrs, max_patterns=200)

    with timer.step("Sampling for F1"):
        evaluator = SupportEvaluator(rows, sample)

    with timer.step("F-score Calc."):
        supports = evaluator.supports(cands)
    scored: dict[Pattern, Support] = dict(zip(cands, supports))
    keep = [
        p
        for p in cands
        if max(scored[p].recall(1), scored[p].recall(2))
        >= params.recall_threshold
    ]
    keep.sort(
        key=lambda p: -max(scored[p].recall(1), scored[p].recall(2))
    )
    frontier = keep[: params.k_cat]
    if not frontier and cands:
        # Even the best categorical pattern missed λ_recall — refine the
        # top-frequency candidates anyway (plus the empty pattern) so purely
        # numeric explanations can still emerge.
        frontier = cands[: params.k_cat]
    frontier = frontier + [Pattern()]

    with timer.step("Refine Patterns"):
        frags = numeric_fragments(sample_pdf, fr.num_attrs, params.n_frag)
        done: set[Pattern] = set(scored)
        level = frontier
        for _ in range(params.attr_num):
            todo: list[Pattern] = []
            for p in level:
                for r in refinements(p, frags, params.attr_num):
                    if r not in done:
                        done.add(r)
                        todo.append(r)
            if not todo:
                break
            sups = evaluator.supports(todo)
            for p, s in zip(todo, sups):
                scored[p] = s
            # Prop. 3.1: refinements of low-recall patterns stay low-recall.
            survivors = [
                p
                for p in todo
                if max(scored[p].recall(1), scored[p].recall(2))
                >= params.recall_threshold
            ]
            survivors.sort(
                key=lambda p: -max(scored[p].fscore(1), scored[p].fscore(2))
            )
            level = survivors[:_BEAM]

    candidates: list[Explanation] = []
    for p, s in scored.items():
        if p.size == 0:
            continue
        for primary in (1, 2):
            if s.recall(primary) >= params.recall_threshold:
                candidates.append(Explanation(jg, p, primary, s))
    top = diverse_topk(
        candidates,
        params.k,
        pattern_of=lambda e: e.pattern,
        fscore_of=lambda e: e.fscore,
    )
    return MineResult(
        top,
        timer,
        apt_rows=obs.get["rows"],
        n_pattern_attrs=len(apt.pattern_cols),
        n_candidates=len(scored),
    )
