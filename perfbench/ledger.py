"""Span arithmetic of the traced run: layer self times and the ledger.

A span is a dict with ``id``, ``parent``, ``name``, ``start_ns``,
``end_ns`` and, on serve, ``request``. Two self-time rules apply:

* Nested spans (a serve request and the batch execution that answered
  it): a span's self time is its duration minus the part of its interval
  that its child spans cover.
* Layers called in turn on the same inputs (facade, then engine, then
  kernel): a layer's self time is its time minus the time of the layer
  below it. The self times of a path therefore add up to the time of its
  top layer; the ledger compares that sum with the untraced end-to-end
  time of the same call, measured in the same process.
"""

import json
import statistics


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def covered_ns(start, end, intervals):
    """Length of the union of `intervals` clipped to [start, end)."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Span id -> self time in ns (duration minus child coverage)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"]) -
        covered_ns(s["start_ns"], s["end_ns"], children.get(s["id"], []))
        for s in spans
    }


def layer_time_s(spans, name):
    """Median duration in seconds of the spans called `name`."""
    durations = [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans
                 if s["name"] == name]
    if not durations:
        raise ValueError("no spans named " + name)
    return statistics.median(durations)


def path_ledger(spans, path):
    """Self times along one blocking path.

    `path` is the probe's description: {"name", "e2e_untraced_s",
    "layers": [[layer, span name or seconds], ...]}, top layer first. A
    span-named layer is timed from the trace (the median pass, or on
    serve the median request); a number is a computed per-pass time for
    a layer with no call of its own. Self times are signed: noise can
    make a thin layer read slightly below zero.
    Returns (layer -> self seconds, accounted fraction, trace overhead).
    """
    times = []
    for layer, source in path["layers"]:
        t = source if isinstance(source, (int, float)) else \
            layer_time_s(spans, source)
        times.append((layer, float(t)))
    selfs = {}
    for i, (layer, t) in enumerate(times):
        below = times[i + 1][1] if i + 1 < len(times) else 0.0
        selfs[layer] = t - below
    e2e = path["e2e_untraced_s"]
    top = times[0][1]
    return selfs, sum(selfs.values()) / e2e, top / e2e - 1.0


def ledger_metrics(spans, info):
    """Per-layer metrics derived from the trace of one run."""
    metrics = {}
    # The serve path's two layers are already reported as
    # serve.wait_ms.mean (below) and serve.execute_ms.*.
    for key in ("local", "dist"):
        selfs, _, _ = path_ledger(spans, info["path." + key])
        for layer, value in selfs.items():
            metrics["ledger.%s.%s_self_s" % (key, layer)] = (value, "s")
    own = info["own_path"]
    _, accounted, overhead = path_ledger(spans, info["path." + own])
    metrics["ledger.accounted_frac"] = (accounted, "ratio")
    metrics["ledger.trace_overhead"] = (overhead, "ratio")
    st = self_times(spans)
    waits = [st[s["id"]] * 1e-6 for s in spans if s["name"] == "serve.request"]
    metrics["serve.wait_ms.mean"] = (statistics.mean(waits), "ms")
    return metrics
