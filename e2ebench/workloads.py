"""The two workloads. Each returns a :class:`Result`.

Every workload studies the preset's default seed (``STUDY_SEED``). The
benchmark's ``--seed`` goes to the feed splitter of the out-of-order probe
and nowhere else: the size of a study, and with it a report's time and
memory, depends on the study seed (cold ``medium`` reports took 8.8 to
23.1 s and 568 to 1410 MB over seeds 1 to 8), so passing it to the program
would measure the seed, not the code.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import layers
import loadgen
import proc
import spans as sp

STUDY_SEED = 7
SETUP_REPEATS = 3


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.notes.append(f"INCORRECT: {what}")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def overhead_pct(untraced: float, traced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def layer_medians(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {name: sp.median([m[name] for m in per_op]) for name in per_op[0]}


# ---------------------------------------------------------------------- #
# Reports
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ReportPlan:
    scale: str
    ops: int


def _report_args(scale: str) -> list[str]:
    return ["report", "--scale", scale, "--seed", str(STUDY_SEED)]


def _report_ops(res: Result, work: Path, env: dict[str, str], args: list[str],
                reference: bytes | None, count: int, tag: str,
                traced: bool = False) -> tuple[list[proc.Report], list[dict]]:
    """``count`` report processes; each stdout must equal ``reference``
    (or, when that is None, the first one's)."""
    reports, layer_runs = [], []
    for i in range(count):
        out = work / f"{tag}{i}.out"
        spans_out = work / f"{tag}{i}.spans.json" if traced else None
        r = proc.run_report(args, env, out, spans_out)
        res.attempted += 1
        res.failed += r.returncode != 0
        if reference is None:
            reference = r.stdout
        res.check(r.stdout == reference,
                  f"{tag} report {i} stdout differs from the first cold report")
        reports.append(r)
        log(f"  {tag}{i}: wall {r.wall_s:.3f} s  cpu {r.cpu_s:.3f} s  rss {r.peak_rss_mb:.0f} MB")
        if traced:
            layer_runs.append(layers.summarize(*sp.load(spans_out)))
    return reports, layer_runs


def report_cold(work: Path, seed: int, seconds: float, trace: bool,
                plan: ReportPlan) -> Result:
    """Cold reports, cache and ledger off, one fresh process each.

    Set-up is three discarded cold ``tiny`` reports (their median is
    ``setup_s``): they warm the page cache and bytecode as a discarded
    ``medium`` report would, and leave its 15 s to another timed report.
    The traced pass makes half the reports untraced and as many traced.
    """
    res = Result()
    env = proc.program_env(work, REPRO_NO_LEDGER="1")
    setups = [
        proc.run_report(_report_args("tiny") + ["--no-cache"], env, work / f"setup{i}.out")
        for i in range(SETUP_REPEATS)
    ]
    res.attempted += len(setups)
    res.failed += sum(r.returncode != 0 for r in setups)
    res.metrics["setup_s"] = sp.median([r.wall_s for r in setups])
    log(f"  setup: {' '.join(f'{r.wall_s:.3f}' for r in setups)} s")

    args = _report_args(plan.scale) + ["--no-cache"]
    count = max(1, plan.ops // 2) if trace else plan.ops
    reports, _ = _report_ops(res, work, env, args, None, count, "op")
    res.metrics["op_s"] = sp.median([r.wall_s for r in reports])
    res.metrics["op_cpu_s"] = sp.median([r.cpu_s for r in reports])
    res.metrics["peak_rss_mb"] = sp.median([r.peak_rss_mb for r in reports])
    if trace:
        traced, per_op = _report_ops(res, work, env, args, reports[0].stdout,
                                     count, "traced", traced=True)
        res.layer = layer_medians(per_op)
        res.layer["trace.overhead_pct"] = overhead_pct(
            res.metrics["op_s"], sp.median([r.wall_s for r in traced])
        )
    return res


# ---------------------------------------------------------------------- #
# Service feed
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FeedPlan:
    probe_scale: str = "small"
    period: float = 6.0  # seconds between micro-batches
    reader_sweeps: int = 7  # reader rounds over all routes per period


FEED_SCALE = "tiny"
SETUP_SHARE = 0.7  # of the study's batches, ingested in set-up
SETUP_CHUNK = 64  # batches per set-up POST
MICRO_BATCH = 8  # batches per timed micro-batch
PROBE_PARTS = (5, 8)  # ingest 5 of 8 shuffled parts


def routes() -> list[str]:
    """Every data route: stream tables first, then those needing a snapshot."""
    from repro.service.app import ENRICHED_TABLES, STREAM_TABLES, figure_names

    return (
        [f"/tables/{t}" for t in STREAM_TABLES]
        + [f"/tables/{t}" for t in ENRICHED_TABLES]
        + [f"/figures/{f}" for f in figure_names()]
        + ["/fidelity"]
    )


def whole_batch_payloads(study, groups: list[list[int]]) -> list[bytes]:
    """One POST body per group: catalog rows, instances and HTML together."""
    import json

    import numpy as np

    from repro import cache as study_cache
    from repro.service.codec import WIRE_SCHEMA_VERSION, encode_table
    from repro.service.client import _take_rows

    released = study.released
    catalog_ids = np.asarray(released.batch_catalog["batch_id"])
    instance_batch = np.asarray(released.instances["batch_id"])
    key = study_cache.study_key(study.config)
    bodies = []
    for group in groups:
        ids = np.asarray(group, dtype=np.int64)
        doc = {"schema": WIRE_SCHEMA_VERSION, "config_key": key}
        doc["catalog"] = encode_table(
            _take_rows(released.batch_catalog, np.flatnonzero(np.isin(catalog_ids, ids)))
        )
        rows = np.flatnonzero(np.isin(instance_batch, ids))
        if len(rows):
            doc["instances"] = encode_table(_take_rows(released.instances, rows))
        html = {str(b): released.batch_html[b] for b in group if b in released.batch_html}
        if html:
            doc["html"] = html
        bodies.append(json.dumps(doc).encode("utf-8"))
    return bodies


def batches_by_creation(study) -> list[int]:
    import numpy as np

    catalog = study.released.batch_catalog
    ids = np.asarray(catalog["batch_id"])
    order = np.lexsort((ids, np.asarray(catalog["created_at"])))
    return [int(b) for b in ids[order]]


def chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def expected_bodies(study) -> dict[str, bytes]:
    """Every route's body, rendered from the one-shot batch study."""
    import numpy as np

    from repro.figures.suite import FigureSuite
    from repro.service import state as svc
    from repro.service.app import (
        ENRICHED_TABLES, fidelity_body, figure_body, figure_names, table_body,
    )
    from repro.stats.cdf import EmpiricalCDF

    released, enriched = study.released, study.enriched
    instances = released.instances
    out = {
        "/tables/catalog": table_body(released.batch_catalog),
        "/tables/instances": table_body(instances),
        "/tables/batch_rollup": table_body(svc.batch_rollup(instances)),
        "/tables/trust_cdf": table_body(svc.trust_cdf_table(
            EmpiricalCDF.from_sample(np.asarray(instances["trust"])))),
        "/tables/duration_hist": table_body(
            svc.duration_hist_table(svc.duration_histogram(instances))),
    }
    for name in ENRICHED_TABLES:
        out[f"/tables/{name}"] = table_body(getattr(enriched, name))
    figures = FigureSuite(state=study._state, released=released, enriched=enriched)
    for name in figure_names():
        out[f"/figures/{name}"] = figure_body(getattr(figures, name)())
    out["/fidelity"] = fidelity_body(figures)
    return out


@dataclass
class FeedPass:
    setup_s: float
    refreshes: list
    reads: list
    lateness: list
    reads_offered: int
    server_cpu_s: float
    peak_rss_mb: float
    final: dict[str, tuple[int, bytes]]
    layer: dict[str, float]


def _feed_pass(res: Result, work: Path, plan: FeedPlan, seconds: float,
               setup_bodies: list[bytes], window_bodies: list[bytes],
               rest_body: bytes | None, traced: bool, tag: str) -> FeedPass:
    from repro.service.app import STREAM_TABLES

    paths = routes()
    env = proc.program_env(work, REPRO_NO_LEDGER="1")
    spans_out = work / f"{tag}.spans.json" if traced else None
    args = ["--scale", FEED_SCALE, "--seed", str(STUDY_SEED)]

    def tally(status: int) -> None:
        res.attempted += 1
        if status not in loadgen.OK_STATUSES:
            res.failed += 1

    t0 = sp.clock()
    with proc.Server(args, env, spans_out) as server:
        conn = loadgen.Connection(server.port)
        for i, body in enumerate(setup_bodies):
            tally(conn.request("POST", "/ingest", f"{tag}.setup.post{i}", body)[0])
        for path in paths:
            tally(conn.request("GET", path, f"{tag}.setup.get")[0])
        setup_s = sp.clock() - t0
        # Peak RSS through set-up: one connection, so one snapshot build at
        # a time. In the window the reader's duplicate builds overlap the
        # writer's by chance, which moved the lifetime peak by 12%.
        peak = server.peak_rss_mb()
        conn.close()  # the window's two connections are the only ones open

        cpu0 = server.cpu_s()
        # The reader's round starts at the first route that needs the
        # snapshot (the stream tables come first), so each ingest meets it
        # there and it asks for the new snapshot at once.
        first = len(STREAM_TABLES)
        refreshes, reads, lateness, offered, w0, w1 = loadgen.run_window(
            server.port, paths, paths[first:] + paths[:first], window_bodies,
            seconds=seconds, period=plan.period, reader_sweeps=plan.reader_sweeps,
            writer_etags=conn.etags,
        )
        server_cpu = server.cpu_s() - cpu0
        res.check(len(refreshes) == len(window_bodies),
                  f"{len(refreshes)} of {len(window_bodies)} micro-batches sent in the window")
        for r in refreshes:
            for status in r.statuses:
                tally(status)
        for s in reads:
            tally(s.status)

        # Complete the feed (untimed), then read every route afresh.
        conn = loadgen.Connection(server.port)
        if rest_body is not None:
            tally(conn.request("POST", "/ingest", f"{tag}.rest", rest_body)[0])
        final = {}
        for path in paths:
            final[path] = conn.request("GET", path, f"{tag}.final")
            tally(final[path][0])
        conn.close()
    layer = layers.summarize(*sp.load(spans_out), window=(w0, w1)) if traced else {}
    return FeedPass(setup_s, refreshes, reads, lateness, offered, server_cpu,
                    peak, final, layer)


def _probe(res: Result, work: Path, plan: FeedPlan, seed: int) -> int:
    """Ingest 5 of 8 shuffled parts (instances may precede their catalog
    row), then read every route. Returns the number of failed answers."""
    import json

    from repro import build_study
    from repro.service.client import split_study

    study = build_study(plan.probe_scale, seed=STUDY_SEED, cache=False)
    taken, parts = PROBE_PARTS
    payloads = split_study(study, parts, seed=seed)[:taken]
    del study
    env = proc.program_env(work, REPRO_NO_LEDGER="1")
    failed_before = res.failed
    with proc.Server(["--scale", plan.probe_scale, "--seed", str(STUDY_SEED)], env) as server:
        conn = loadgen.Connection(server.port)
        for i, payload in enumerate(payloads):
            status, _ = conn.request("POST", "/ingest", f"probe.post{i}",
                                     json.dumps(payload).encode("utf-8"))
            res.attempted += 1
            res.failed += status != 200
        for path in routes():
            status, _ = conn.request("GET", path, "probe.get")
            res.attempted += 1
            if status not in loadgen.OK_STATUSES:
                res.failed += 1
                log(f"  probe: {path} answered {status}")
        conn.close()
    return res.failed - failed_before


def service_feed(work: Path, seed: int, seconds: float, trace: bool,
                 plan: FeedPlan) -> Result:
    from repro import build_study

    res = Result()
    study = build_study(FEED_SCALE, seed=STUDY_SEED, cache=False)
    order = batches_by_creation(study)
    n_setup = round(SETUP_SHARE * len(order))
    n_window = math.ceil(seconds / plan.period)  # micro-batches due in the window
    window_groups = chunks(order[n_setup:], MICRO_BATCH)[:n_window]
    rest = order[n_setup + MICRO_BATCH * len(window_groups):]
    setup_bodies = whole_batch_payloads(study, chunks(order[:n_setup], SETUP_CHUNK))
    window_bodies = whole_batch_payloads(study, window_groups)
    rest_body = whole_batch_payloads(study, [rest])[0] if rest else None

    passes = [False, True] if trace else [False]
    results = [
        _feed_pass(res, work, plan, seconds, setup_bodies, window_bodies,
                   rest_body, traced, "traced" if traced else "feed")
        for traced in passes
    ]
    expected = expected_bodies(study)
    for p in results:
        for path, (status, body) in p.final.items():
            res.check(status == 200 and body == expected[path],
                      f"final {path} differs from the batch study")
        if not all(r.ok for r in p.refreshes):
            log("  a refresh had a failed answer")

    first = results[0]
    refresh_s = [r.latency for r in first.refreshes]
    read_ms = [1e3 * s.latency for s in first.reads]
    n_refresh = len(first.refreshes)
    log(f"  setup {first.setup_s:.3f} s; {n_refresh} refreshes "
        f"{' '.join(f'{x:.2f}' for x in refresh_s)} s; {len(read_ms)} reads, p50 "
        f"{sp.median(read_ms):.2f} ms; server cpu {first.server_cpu_s:.2f} s; "
        f"rss {first.peak_rss_mb:.0f} MB")
    res.metrics = {
        "setup_s": first.setup_s,
        "op_s": sp.median(refresh_s),
        "op_cpu_s": first.server_cpu_s / n_refresh,
        "peak_rss_mb": first.peak_rss_mb,
    }
    probe_failed = _probe(res, work, plan, seed)
    log(f"  out-of-order probe: {probe_failed} failed answers")
    if trace:
        traced = results[1]
        pct, tail_ms, n = sp.tail(read_ms)
        res.layer = dict(traced.layer)
        res.layer.update({
            "read_p50_ms": sp.median(read_ms),
            "read_tail_ms": tail_ms,
            "read_tail_pct": pct,
            "read_samples": float(n),
            "server_cpu_s": first.server_cpu_s,
            "loadgen.lateness_p99_ms": 1e3 * sp.percentile(first.lateness, 99),
            "loadgen.reads_offered": float(first.reads_offered),
            "loadgen.reads_done": float(len(first.reads)),
            "probe.failed": float(probe_failed),
            "trace.overhead_pct": overhead_pct(
                first.server_cpu_s / n_refresh,
                traced.server_cpu_s / len(traced.refreshes),
            ),
        })
    return res


#: name -> (workload, plan, plan of the tiny smoke run).
WORKLOADS = {
    "report_cold": (report_cold, ReportPlan("medium", 4), ReportPlan("tiny", 2)),
    "service_feed": (service_feed, FeedPlan(),
                     FeedPlan(probe_scale="tiny", period=1.0, reader_sweeps=1)),
}
