"""Per-layer probes, installed from outside the program.

:func:`install` replaces public functions of the program's layers with
timed wrappers, each at the name its caller looks it up by (a module
attribute for functions imported at call time or bound at import time, the
class attribute for methods). It runs before ``repro.cli.main``; nothing in
``src/`` is edited and the program's own tracing is not used.

:func:`summarize` turns the recorded spans into the per-layer metrics of
``BENCHMARK.json``. A layer a workload never calls reports 0.
"""

from __future__ import annotations

from typing import Any

import spans as sp

#: Per-layer metrics reported by the traced pass: name -> unit.
LAYER_METRICS: dict[str, str] = {
    "cli.startup_s": "s",
    "simulator.simulate_marketplace_s": "s",
    "dataset.release_dataset_s": "s",
    "enrichment.enrich_dataset_s": "s",
    "enrichment.enrich_dataset_calls": "count",
    "enrichment.cluster_batches_s": "s",
    "enrichment.shingle_arrays_s": "s",
    "enrichment.extract_design_parameters_s": "s",
    "html.extract_features_calls": "count",
    "enrichment.compute_batch_metrics_s": "s",
    "enrichment.annotate_clusters_s": "s",
    "enrichment.assemble_enrichment_s": "s",
    "enrichment.html_bytes_per_call": "bytes",
    "figures.self_s": "s",
    "figures.calls": "count",
    "figures.repeat_calls": "count",
    "ledger.fidelity_probes_s": "s",
    "cache.store_response_s": "s",
    "cache.load_response_s": "s",
    "service.ingest_s": "s",
    "codec.decode_table_s": "s",
    "service.snapshot_builds": "count",
    "service.snapshot_versions": "count",
    "service.snapshot_useful_ratio": "ratio",
    "service.snapshot_s": "s",
    "service.stream_table_s": "s",
    "respcache.hits": "count",
    "respcache.misses": "count",
    "http.not_modified": "count",
    "codec.dumps_canonical_s": "s",
    "codec.body_bytes": "bytes",
    "http.handle_get_p50_ms": "ms",
    "http.status_5xx": "count",
}

#: (module, attribute, span name) for plain functions.
FUNCTIONS = (
    ("repro.simulator.engine", "simulate_marketplace", "simulator.simulate_marketplace"),
    ("repro.dataset.release", "release_dataset", "dataset.release_dataset"),
    ("repro.enrichment.pipeline", "enrich_dataset", "enrichment.enrich_dataset"),
    ("repro.enrichment.pipeline", "cluster_batches", "enrichment.cluster_batches"),
    ("repro.enrichment.clustering", "shingle_arrays", "enrichment.shingle_arrays"),
    ("repro.enrichment.pipeline", "extract_design_parameters",
     "enrichment.extract_design_parameters"),
    ("repro.enrichment.pipeline", "compute_batch_metrics",
     "enrichment.compute_batch_metrics"),
    ("repro.enrichment.pipeline", "annotate_clusters", "enrichment.annotate_clusters"),
    ("repro.enrichment.pipeline", "assemble_enrichment",
     "enrichment.assemble_enrichment"),
    ("repro.cache", "store_response", "cache.store_response"),
    ("repro.cache", "load_response", "cache.load_response"),
    ("repro.obs.ledger", "fidelity_probes", "ledger.fidelity_probes"),
    ("repro.service.state", "decode_table", "codec.decode_table"),
    ("repro.service.app", "dumps_canonical", "codec.dumps_canonical"),
)

STREAM_METHODS = (
    "catalog_table", "instances_table", "rollup_table", "trust_cdf",
    "duration_hist",
)

REQUEST_ID_HEADER = "X-Request-Id"


def _set_attr(rec: dict, key: str, value: Any) -> None:
    rec["attrs"][key] = value


def install(rec: sp.Recorder, t_spawn: float) -> None:
    """Wrap every probed layer; ``t_spawn`` is the parent's spawn time."""
    import importlib

    import repro
    from repro.figures import suite
    from repro.obs import live
    from repro.service import app as service_app
    from repro.service import respcache, state

    after = {
        "enrichment.enrich_dataset": lambda r, a, k, res: _set_attr(
            r, "html_bytes", sum(len(d) for d in a[0].batch_html.values())
        ),
        "codec.dumps_canonical": lambda r, a, k, res: _set_attr(
            r, "bytes", len(res)
        ),
    }
    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(module, attr, rec.wrap(getattr(module, attr), name, after.get(name)))

    design = importlib.import_module("repro.enrichment.design")
    extract_features = design.extract_features

    def counted_extract_features(*args, **kwargs):
        rec.count("html.extract_features_calls")
        return extract_features(*args, **kwargs)

    design.extract_features = counted_extract_features

    # cli.startup: spawn until the program first asks for a study or app.
    started = []

    def mark_startup() -> None:
        if not started:
            started.append(True)
            rec.spans.append({
                "id": 0, "name": "cli.startup", "parent": None, "thread": 0,
                "rid": None, "start": t_spawn, "end": sp.clock(), "attrs": {},
                "kids": [],
            })

    build_study = repro.build_study

    def traced_build_study(*args, **kwargs):
        mark_startup()
        return build_study(*args, **kwargs)

    repro.build_study = traced_build_study

    app_init = service_app.ServiceApp.__init__

    def traced_app_init(self, *args, **kwargs):
        mark_startup()
        app_init(self, *args, **kwargs)

    service_app.ServiceApp.__init__ = traced_app_init

    # Figures: self time, calls, and entry points called again on one suite.
    def figure_wrapper(name: str, fn):
        timed = rec.wrap(fn, f"figures.{name}")

        def call(self, *args, **kwargs):
            seen = self.__dict__.setdefault("_bench_seen", set())
            if name in seen:
                rec.count("figures.repeat_calls")
            seen.add(name)
            rec.count("figures.calls")
            return timed(self, *args, **kwargs)

        return call

    for name in suite._FIGURE_ENTRY_POINTS:
        setattr(suite.FigureSuite, name,
                figure_wrapper(name, getattr(suite.FigureSuite, name)))

    # Service state: ingest, snapshot builds, streaming tables.
    cls = state.ServiceState
    cls.ingest = rec.wrap(cls.ingest, "service.ingest")

    def snapshot_after(r, args, kwargs, result):
        if "enrichment.enrich_dataset" in r["kids"]:
            _set_attr(r, "built_versions", list(result.versions))

    cls.snapshot = rec.wrap(cls.snapshot, "service.snapshot", snapshot_after)
    for method in STREAM_METHODS:
        setattr(cls, method, rec.wrap(getattr(cls, method),
                                      f"service.stream_table.{method}"))

    cache_get = respcache.ResponseCache.get

    def counted_get(self, *args, **kwargs):
        entry = cache_get(self, *args, **kwargs)
        rec.count("respcache.misses" if entry is None else "respcache.hits")
        return entry

    respcache.ResponseCache.get = counted_get

    # HTTP: request ids from the client, handler time, response statuses.
    def request_scoped(fn, name: str):
        timed = rec.wrap(fn, name)

        def call(self, handler, *args, **kwargs):
            rec.request_id = handler.headers.get(REQUEST_ID_HEADER)
            try:
                return timed(self, handler, *args, **kwargs)
            finally:
                rec.request_id = None

        return call

    app_cls = service_app.ServiceApp
    app_cls.handle_get = request_scoped(app_cls.handle_get, "http.handle_get")
    app_cls.handle_post = request_scoped(app_cls.handle_post, "http.handle_post")

    send_response = live._Handler.send_response

    def counted_send_response(self, code, *args, **kwargs):
        if code == 304:
            rec.count("http.not_modified")
        elif code >= 500:
            rec.count("http.status_5xx")
        return send_response(self, code, *args, **kwargs)

    live._Handler.send_response = counted_send_response


# ---------------------------------------------------------------------- #
# Spans -> per-layer metrics
# ---------------------------------------------------------------------- #


def summarize(spans: list[dict], counters: dict[str, list[float]],
              window: tuple[float, float] | None = None) -> dict[str, float]:
    """Per-layer metrics from spans and counter events.

    With a ``window``, only spans that start and events that happen inside
    it count (children of a counted span start inside it too).
    """
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if lo <= s["start"] < hi]
        counters = {k: [t for t in v if lo <= t < hi] for k, v in counters.items()}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(sp.duration(s) for s in by_name.get(name, ()))

    out = {name: 0.0 for name in LAYER_METRICS}
    for name in LAYER_METRICS:
        if name.endswith("_s") and name[:-2] in by_name:
            out[name] = total(name[:-2])
    for name in ("respcache.hits", "respcache.misses", "http.not_modified",
                 "http.status_5xx", "html.extract_features_calls",
                 "figures.calls", "figures.repeat_calls"):
        out[name] = float(len(counters.get(name, ())))

    enrich = by_name.get("enrichment.enrich_dataset", [])
    out["enrichment.enrich_dataset_calls"] = float(len(enrich))
    if enrich:
        out["enrichment.html_bytes_per_call"] = sp.median(
            [s["attrs"]["html_bytes"] for s in enrich]
        )

    kids = sp.children_of(spans)
    figures = [s for s in spans if s["name"].startswith("figures.")]
    out["figures.self_s"] = sum(sp.self_time(s, kids.get(s["id"], ())) for s in figures)

    ingests = by_name.get("service.ingest", [])
    if ingests:
        out["service.ingest_s"] = sp.median([sp.duration(s) for s in ingests])
    builds = [
        tuple(s["attrs"]["built_versions"])
        for s in by_name.get("service.snapshot", [])
        if "built_versions" in s["attrs"]
    ]
    out["service.snapshot_builds"] = float(len(builds))
    out["service.snapshot_versions"] = float(len(set(builds)))
    if builds:
        out["service.snapshot_useful_ratio"] = len(set(builds)) / len(builds)
    out["service.stream_table_s"] = sum(
        sp.duration(s) for s in spans if s["name"].startswith("service.stream_table.")
    )
    out["codec.body_bytes"] = float(sum(
        s["attrs"]["bytes"] for s in by_name.get("codec.dumps_canonical", [])
    ))
    gets = by_name.get("http.handle_get", [])
    if gets:
        out["http.handle_get_p50_ms"] = 1e3 * sp.median([sp.duration(s) for s in gets])
    return out
