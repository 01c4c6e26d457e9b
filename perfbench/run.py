"""``explain()`` latency benchmark: one closed-loop caller per run.

Run from the repository root::

    python3 perfbench/run.py --workload nba_uq1 --seed 0 --seconds 15 --trace 0

A run first warms up, untimed and unreported: it starts the JVM, sets the
workload up and asks its question once with each sampling seed. The JVM
launch and much of the JIT compiling of Spark's hot paths thus fall outside
the measurements, and so does compiling the seed-specific query code (the
sampling seed is a literal in the code Spark generates). Then,
until ``--seconds`` have passed and at least ``MIN_CYCLES`` times (once in a
traced run), it runs a cycle: a fresh Spark session in the same JVM, data
generation and ``Database.cache_all`` (the set-up), one call on the fresh
set-up (the cold call, which pays the catalog statistics jobs), then
``warm_per_cycle`` warm calls. The caller is closed-loop: it asks again only
when ``explain()`` has returned. ``setup_s``, ``first_explain_s`` and
``explain_s`` are the medians of the set-ups, cold calls and warm calls of
all cycles; interleaving them spreads what is left of the JIT warm-up evenly
over the three.

* ``--trace 0`` reports the end-to-end metrics, from untraced calls.
* ``--trace 1`` traces the cold calls and asks every warm call twice,
  untraced and traced. It reports the per-layer metrics of ``tracing.py`` as
  medians over the traced warm calls, except ``catalog.*``, which are
  medians over the cold calls because warm calls find the statistics cached.
  ``trace.overhead_s`` is the median traced minus the median untraced warm
  latency.

Outputs are checked outside the timed region (``check.py``). Each seed's
warm-up result is checked against brute force in its own session and
becomes the seed's reference. A call fails if it raises, returns no
explanation, returns a top-k that differs from its seed's reference, or
returns a ``Support`` that brute force does not reproduce. The traced run
also reports ``topk_exact_f1``, the exact F-score of the top-k averaged over
the run's sampling seeds. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record with the run fingerprint, every latency, every failure and the
spans is written under ``.perfbench/runs/`` (see ``compare.py``).

``--seed n`` makes the run ask with ``CajadeParams.seed`` = 3n, 3n+1 and
3n+2 (``SAMPLING_SEEDS``) in turn. The seed draws the mining and F1 samples
and seeds the random forest, and the work of a call depends on it (on NBA
the patterns scored per call range from about 800 to 2,000), so each run
mixes three samples rather than letting one light or heavy sample set its
medians.

``--data-seed m`` (default 0) feeds the data generators
(``generate_nba(seed=7 + m)``, ``generate_mimic(seed=11 + m)``), so the
defaults are the repository's configuration. The data stay fixed across
``--seed`` values because over ten NBA data seeds the patterns scored per
call range from about 1,700 to 4,600 and the median warm latency spreads by
half its value; a claim made on one data seed is re-checked by running both
sides on another.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shlex
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from pyspark import SparkContext  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

import repro.core.explain as cajade  # noqa: E402
from repro.core.config import CajadeParams  # noqa: E402
from repro.substrate.catalog import Database  # noqa: E402
from repro.core.schema_graph import SchemaGraph  # noqa: E402
from repro.workload import UQ_1, UQ_MIMIC4, UserQuestion  # noqa: E402

from check import output_key, top_k, verify  # noqa: E402
from tracing import LAYER_METRICS, CallTrace, Tracer, check_spans, layer_metrics  # noqa: E402

# Pinned session: one task thread and one shuffle partition (64 would
# mostly time empty tasks). The data are small enough that more task threads
# do not make a call faster, and on a shared 4-core host every extra busy
# thread makes the runs spread more (with local[2] the median warm latency of
# mimic_uq4_naive spread by 13% over ten seeds, with local[1] by 7% over five);
# the cores left over run the Python driver and the JVM's JIT and GC threads.
# Broadcast joins are off as in the test fixture, so an explicit broadcast
# hint in the program stays measurable.
MASTER = "local[1]"
JVM_GC_THREADS = 2
DRIVER_MEMORY = "2g"
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "1",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.ui.retainedJobs": "100000",  # tracing.py reads job ids back
    "spark.driver.host": "127.0.0.1",
}
# A cycle is a set-up, a cold call and warm calls (see the module docstring);
# over SAMPLING_SEEDS cycles every seed is asked cold once.
MIN_CYCLES = 3
SAMPLING_SEEDS = 3  # values of CajadeParams.seed asked in turn within a run

# λ_#edges = 1 keeps a warm call at a few seconds, so that every run of the
# benchmark fits its time budget (λ_#edges = 2 takes ~30 s per NBA call on
# 4 cores).
N_EDGES = 1
Q_COST = 5e5
K = 5
DATA_SEEDS = {"nba": 7, "mimic": 11}


@dataclass(frozen=True)
class Workload:
    dataset: str
    question: UserQuestion
    sf: float
    f1_samp: float
    warm_per_cycle: int  # warm calls after each cold call
    feature_selection: bool = True

    def params(self, seed: int) -> CajadeParams:
        return CajadeParams(
            db_size=self.sf, n_edges=N_EDGES, q_cost=Q_COST, k=K,
            f1_samp=self.f1_samp, feature_selection=self.feature_selection,
            seed=seed,
        )


# Why each workload is here is recorded in BENCHMARK.json: nba_uq1 spends
# its time on Spark jobs per join graph, mimic_uq4_naive on driver-side
# kernels, so a change to one side shows on one workload and not the other.
# A warm nba_uq1 call takes ~4.5 s and a mimic_uq4_naive one ~2 s, so the
# latter affords two warm calls per cycle within the time budget.
WORKLOADS = {
    "nba_uq1": Workload("nba", UQ_1, 0.1, 0.3, warm_per_cycle=1),
    "mimic_uq4_naive": Workload(
        "mimic", UQ_MIMIC4, 0.1, 1.0, warm_per_cycle=2, feature_selection=False
    ),
}

END_TO_END = {"explain_s": "s", "first_explain_s": "s", "setup_s": "s"}
# topk_exact_f1 depends on the seed far more than any end-to-end bound
# allows (tiny F1 samples on nba_uq1), so it is reported here, unbounded.
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": "s", "topk_exact_f1": "ratio"}


def configure_spark() -> None:
    """Pin the session and keep every file Spark writes under ``.perfbench``.
    Must run before the first SparkSession is created."""
    tmp = WORK / "tmp"
    local = WORK / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # Also read by the short-lived launcher JVM that spark-submit starts.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-XX:-UsePerfData -XX:ParallelGCThreads={JVM_GC_THREADS} "
        f"-Djava.io.tmpdir={shlex.quote(str(tmp))}"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )


def start_session() -> SparkSession:
    b = SparkSession.builder.master(MASTER).appName("perfbench")
    for k, v in SESSION_CONF.items():
        b = b.config(k, v)
    b = b.config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark: SparkSession | None) -> None:
    """Stop the session and the JVM behind it, and wait for the JVM to exit."""
    if spark is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def load(spark: SparkSession, wl: Workload, data_seed: int, sf: float) -> tuple[Database, SchemaGraph]:
    seed = DATA_SEEDS[wl.dataset] + data_seed
    if wl.dataset == "nba":
        from repro.data.nba import generate_nba, nba_schema_graph

        db, sg = generate_nba(spark, sf=sf, seed=seed), nba_schema_graph()
    else:
        from repro.data.mimic import generate_mimic, mimic_schema_graph

        db, sg = generate_mimic(spark, sf=sf, seed=seed), mimic_schema_graph()
    db.cache_all()
    return db, sg


@dataclass
class Call:
    params: CajadeParams
    seconds: float
    traced: bool
    result: cajade.ExplainResult | None = None
    error: str | None = None
    trace: CallTrace | None = None
    failure: str | None = None
    cycle: int = -1  # -1 for the warm-up calls
    cold: bool = False


def _ask(ask, params: CajadeParams, tracer: Tracer | None) -> Call:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = ask(params)
            return Call(params, time.perf_counter() - t0, False, res)
        res, ct = tracer.call(lambda: ask(params))
        root = ct.spans[0]
        return Call(params, root.end - root.start, True, res, trace=ct)
    except Exception:  # a failed call is counted, and the loop goes on
        return Call(params, time.perf_counter() - t0, tracer is not None,
                    error=traceback.format_exc())


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, data_seed: int = 0,
        min_cycles: int | None = None, sf: float | None = None) -> dict:
    """One benchmark run; returns the result object plus the full record.
    The caller has run :func:`configure_spark` and stops Spark afterwards."""
    if min_cycles is None:
        min_cycles = 1 if trace else MIN_CYCLES
    wl = WORKLOADS[name]
    sf = wl.sf if sf is None else sf
    uq = wl.question
    seeds = [wl.params(SAMPLING_SEEDS * seed + j) for j in range(SAMPLING_SEEDS)]

    def ask(params: CajadeParams):
        return cajade.explain(db, sg, uq.query, uq.t1, uq.t2, params)

    def measure(params: CajadeParams, tracer: Tracer | None, cold: bool = False) -> None:
        c = _ask(ask, params, tracer)
        c.cycle, c.cold = cycle, cold
        calls.append(c)

    setup_times: list[float] = []
    calls: list[Call] = []
    tracer: Tracer | None = None
    spark = start_session()
    db, sg = load(spark, wl, data_seed, sf)
    warmup = [_ask(ask, params, None) for params in seeds]
    # The warm-up result of each seed is the reference for every later call
    # with that seed; brute force checks it now, while the session it was
    # computed in (and whose tables brute force reads) is live.
    t_checks = time.perf_counter()
    refs = {c.params.seed: c for c in warmup if c.error is None}
    verdicts = {s: verify(db, c.result, uq.t1, uq.t2, c.params) for s, c in refs.items()}
    keys = {s: output_key(c.result, K) for s, c in refs.items()}
    check_s = time.perf_counter() - t_checks
    try:
        t_start = time.perf_counter()
        cycle = 0
        while cycle < min_cycles or time.perf_counter() - t_start < seconds:
            spark.stop()  # each set-up starts a fresh SparkContext
            t0 = time.perf_counter()
            spark = start_session()
            db, sg = load(spark, wl, data_seed, sf)
            setup_times.append(time.perf_counter() - t0)
            if trace:
                tracer = Tracer(spark)
                tracer.install()
            # The cold call takes the seeds in turn and each warm call the
            # seed after the previous call's, so that over SAMPLING_SEEDS
            # cycles every seed is asked as often as any other.
            order = [seeds[(cycle + j) % SAMPLING_SEEDS] for j in range(1 + wl.warm_per_cycle)]
            measure(order[0], tracer, cold=True)
            for params in order[1:]:
                # Traced runs ask each warm seed untraced and traced, U T in
                # even cycles and T U in odd ones, so that JIT warm-up does
                # not bias trace.overhead_s.
                modes = [None, tracer][:: 1 if cycle % 2 == 0 else -1] if trace else [None]
                for t in modes:
                    measure(params, t)
            if tracer:
                tracer.uninstall()
                tracer = None
            cycle += 1
    finally:
        if tracer:
            tracer.uninstall()

    # ---- output checks, outside the timed region -------------------------
    # Every call with a seed, in any session of the run, must return the
    # same top-k as the seed's warm-up call.
    everything = warmup + calls
    for c in everything:
        s = c.params.seed
        if c.error is not None:
            c.failure = "raised: " + c.error.strip().splitlines()[-1]
        elif not top_k(c.result, K):
            c.failure = "no explanation returned"
        elif s not in keys:
            c.failure = f"the warm-up call with seed {s} failed"
        elif output_key(c.result, K) != keys[s]:
            c.failure = f"top-k differs from the warm-up call with seed {s}"
        elif verdicts[s].errors:
            c.failure = "support differs from brute force: " + verdicts[s].errors[0]
    failed = sum(c.failure is not None for c in everything)

    warm = [c for c in calls if not c.cold and c.error is None]
    cold = [c for c in calls if c.cold and c.error is None]
    if not trace:
        metrics = {
            "explain_s": _median([c.seconds for c in warm]),
            "first_explain_s": _median([c.seconds for c in cold]),
            "setup_s": _median(setup_times),
        }
        units = END_TO_END
    else:
        per_call = [layer_metrics(c.trace, c.result.timer.times) for c in warm if c.traced]
        metrics = {m: _median([p[m] for p in per_call]) for m in LAYER_METRICS}
        per_cold = [layer_metrics(c.trace, c.result.timer.times) for c in cold]
        metrics.update({
            m: _median([p[m] for p in per_cold]) for m in LAYER_METRICS if m.startswith("catalog.")
        })
        metrics["trace.overhead_s"] = _median(
            [c.seconds for c in warm if c.traced]
        ) - _median([c.seconds for c in warm if not c.traced])
        metrics["topk_exact_f1"] = (
            statistics.fmean(v.exact_f1 for v in verdicts.values()) if verdicts else 0.0
        )
        units = PER_LAYER

    ref = next((c.result for c in refs.values()), None)
    data = {
        "workload": name, "seed": seed, "data_seed": DATA_SEEDS[wl.dataset] + data_seed,
        "params": [dataclasses.asdict(p) for p in seeds],
        "tables": {t: db.df(t).count() for t in db.names()},
        "pt_rows": ref.pt.n_rows if ref else None,
        "graphs_enumerated": ref.n_join_graphs if ref else None,
        "graphs_mined": ref.n_mined if ref else None,
    }
    env = {
        "cores": os.cpu_count(), "spark": spark.version,
        "python": platform.python_version(), "master": MASTER,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "driver_memory": DRIVER_MEMORY, "session": SESSION_CONF,
    }
    record = {
        "fingerprint": {"data": data, "env": env},
        "trace": trace,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "setup_s": setup_times,
        "check_s": check_s,
        "warmup_s": [c.seconds for c in warmup],
        "first_s": [c.seconds for c in calls if c.cold],
        "warm_s": [c.seconds for c in calls if not c.cold],
        "warm_traced": [c.traced for c in calls if not c.cold],
        "failures": [c.failure for c in everything if c.failure],
        "errors": [c.error for c in everything if c.error],
        "span_errors": [e for c in everything if c.trace for e in check_spans(c.trace)],
        "spans": [  # [call index in the run, span id, name, parent, start, end, jobs]
            [i, s.sid, s.name, s.parent, s.start, s.end, s.jobs]
            for i, c in enumerate(everything) if c.trace for s in c.trace.spans
        ],
    }
    return {
        "correct": failed == 0 and bool(verdicts),
        "attempted": len(everything),
        "failed": failed,
        "metrics": record["metrics"],
        "record": record,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    configure_spark()
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.data_seed)
    finally:
        stop_spark(SparkSession.getActiveSession())
    record = out.pop("record")
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / (f"{args.workload}-seed{args.seed}-data{args.data_seed}"
                   f"-trace{args.trace}-{time.time_ns()}.json")
    path.write_text(json.dumps(record))
    fp = record["fingerprint"]["data"]
    print(f"fingerprint: {json.dumps({k: v for k, v in fp.items() if k != 'params'})}")
    print(f"failed_frac: {out['failed'] / out['attempted']} ({out['failed']}/{out['attempted']})")
    for f in record["failures"] + record["span_errors"]:
        print(f"failure: {f}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
