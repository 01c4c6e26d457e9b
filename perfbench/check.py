"""Output checks of ``explain()`` results, run outside the timed region.

The reference is ``repro.core.metrics.brute_force_support`` (Def. 7 over
pandas frames) on each explanation's APT, collected from Spark once per join
graph:

* on the same λ_F1-samp sample of provenance tuples that ``mine_apt``
  scored on, every returned ``Support`` must equal the reference exactly;
* with no sampling (λ_F1-samp = 1.0), the mean F-score of the returned
  top-k is ``topk_exact_f1``, so an F = 1.0 that only holds on a tiny
  sample is not rewarded.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro.core.apt import materialize_apt
from repro.core.config import CajadeParams
from repro.core.explain import ExplainResult, dedupe_explanations
from repro.core.metrics import _sample_pred, brute_force_support
from repro.core.mine import Explanation
from repro.core.pattern import Pattern
from repro.substrate.catalog import Database
from repro.substrate.provenance import PT_ID


def top_k(res: ExplainResult, k: int) -> list[Explanation]:
    """The deduplicated top-k a user is shown (case-study rule of §6)."""
    return dedupe_explanations(res.explanations, top=k)


def output_key(res: ExplainResult, k: int) -> tuple:
    """What must not change between calls with the same inputs."""
    return tuple(
        (e.jg.describe(), e.describe(), e.support) for e in top_k(res, k)
    )


@dataclass
class Verdict:
    errors: list[str]
    exact_f1: float


def _sample_ids(
    res: ExplainResult, pt_pdf: pd.DataFrame, t1, t2, params: CajadeParams
) -> set | None:
    """PT tuple ids of the F-score sample ``mine_apt`` scored on, or None
    when it scored on all of PT (no sampling, or the sample missed a side)."""
    pred = _sample_pred(params.f1_samp, params.seed)
    if pred is None:
        return None
    ids = set(res.pt.df.filter(pred).select(PT_ID).toPandas()[PT_ID])
    sampled = pt_pdf[pt_pdf[PT_ID].isin(ids)]
    sizes = brute_force_support(sampled, sampled, res.pt.group_cols, Pattern(), t1, t2)
    return ids if sizes.n1 and sizes.n2 else None


def verify(
    db: Database, res: ExplainResult, t1, t2, params: CajadeParams
) -> Verdict:
    """Check every returned ``Support`` of the top-k against brute force and
    compute the exact mean F-score of the top-k."""
    top = top_k(res, params.k)
    if not top:
        return Verdict(["no explanation returned"], 0.0)
    pt_pdf = res.pt.df.toPandas()
    ids = _sample_ids(res, pt_pdf, t1, t2, params)
    apts: dict = {}
    errors: list[str] = []
    f1s: list[float] = []
    for e in top:
        if e.jg not in apts:
            apts[e.jg] = materialize_apt(db, res.pt, e.jg).df.toPandas()
        apt_pdf = apts[e.jg]
        exact = brute_force_support(apt_pdf, pt_pdf, res.pt.group_cols, e.pattern, t1, t2)
        ref = exact
        if ids is not None:
            ref = brute_force_support(
                apt_pdf[apt_pdf[PT_ID].isin(ids)],
                pt_pdf[pt_pdf[PT_ID].isin(ids)],
                res.pt.group_cols, e.pattern, t1, t2,
            )
        if e.support != ref:
            errors.append(f"{e.describe()} on {e.jg.structure()}: {e.support} != brute force {ref}")
        f1s.append(exact.fscore(e.primary))
    return Verdict(errors, sum(f1s) / len(f1s))
