"""Tests for the benchmark's span tracer and its result bookkeeping."""

from __future__ import annotations

import functools
import gc
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import child  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_nesting_records_parent_and_case():
    t = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0), min_span_s=0.0)
    outer = t.begin("outer")
    inner = t.begin("inner")
    leaf = t.begin("leaf")
    t.end(leaf)
    t.end(inner)
    t.end(outer)
    by_name = {name: (sid, parent, case) for sid, name, _, _, parent, case in t.spans}
    assert by_name["outer"] == (0, None, 0)
    assert by_name["inner"] == (1, 0, 0)
    assert by_name["leaf"] == (2, 1, 0)


def test_self_time_subtracts_only_direct_children():
    # outer [0, 10] holds a [2, 5] (which holds b [3, 4]) and c [6, 7]
    t = Tracer(clock=FakeClock(0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0))
    outer = t.begin("outer")
    a = t.begin("a")
    b = t.begin("b")
    t.end(b)
    t.end(a)
    c = t.begin("c")
    t.end(c)
    t.end(outer)
    stats = t.summary()["stats"]
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert stats["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert stats["b"]["self_s"] == 1.0
    assert stats["c"]["self_s"] == 1.0


def test_wrapper_ends_span_when_the_call_raises():
    t = Tracer()

    def boom():
        raise ValueError("x")

    traced = t.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert t.summary()["stats"]["boom"]["calls"] == 1
    assert not t._stack


def test_short_spans_are_aggregated_but_not_stored():
    t = Tracer(clock=FakeClock(0.0, 1e-6, 1.0, 3.0), min_span_s=0.5, max_spans=10)
    t.end(t.begin("short"))
    t.end(t.begin("long"))
    assert [s[1] for s in t.spans] == ["long"]
    assert t.dropped == 1
    assert t.summary()["stats"]["short"]["calls"] == 1


def test_result_counts_are_accumulated():
    t = Tracer()
    traced = t.wrap("coweights.enumerate_cone", lambda n: list(range(n)))
    traced(3)
    traced(4)
    assert t.counts["coweights.enumerate_cone.items"] == 7


def _original_bindings(targets):
    """Names of the package's module and class namespaces that still hold
    an untraced target.  Found through the garbage collector's referrer
    graph, independently of how the tracer looks for bindings."""
    found = []
    for fn in targets:
        for ref in gc.get_referrers(fn):
            if not isinstance(ref, dict) or ref.get("__wrapped__") is fn:
                continue
            owner = ref.get("__name__") if "__builtins__" in ref else ref.get("__module__")
            if isinstance(owner, str) and owner.startswith("paramodular"):
                found.append((owner, fn.__qualname__))
    return found


def test_install_rebinds_every_binding_and_uninstall_restores():
    import paramodular
    from paramodular import characters, cli, oldforms, rankin, rings, whittaker

    targets = tracer_mod.traced_targets()
    assert _original_bindings(targets)
    t = Tracer()
    t.install()
    try:
        assert _original_bindings(targets) == []
        # re-exports and aliases share one wrapper with the definition
        assert cli.xi is rankin.xi is paramodular.xi
        assert rankin.schur is characters.schur is whittaker.schur
        assert cli._run_case.__wrapped__ in targets
        assert oldforms.vlaurent_div_exact is rings.vlaurent_div_exact
        assert vars(rings.SymLaurent)["__rmul__"] is vars(rings.SymLaurent)["__mul__"]
        assert characters.schur.__wrapped__ in targets
        # the cache stays reachable through the wrapper
        assert characters.schur.cache_info().maxsize is None
    finally:
        t.uninstall()
    assert characters.schur in targets and rankin.schur is characters.schur
    assert cli.xi is rankin.xi and rankin.xi in targets
    assert vars(rings.SymLaurent)["__rmul__"] in targets


def test_traced_calls_nest_along_the_call_graph():
    from fractions import Fraction

    from paramodular import rankin, whittaker

    t = Tracer(min_span_s=0.0, max_spans=10**6)
    t.install()
    try:
        beta = (Fraction(2), Fraction(3))
        d = whittaker.spherical_so_data(beta, 2, 3)
        rankin.xi(d, 2, 1, beta=beta, mode=rankin.EvaluationMode(1, (Fraction(1, 2),), 2),
                  trunc=3, window=2)
    finally:
        t.uninstall()
    names = {sid: name for sid, name, *_ in t.spans}
    parents = {(names.get(parent), name) for _, name, _, _, parent, _ in t.spans}
    assert (None, "whittaker.spherical_so_data") in parents
    assert ("whittaker.spherical_so_data", "characters.sp_character_value") in parents
    assert (None, "rankin.xi") in parents
    assert ("rankin.xi", "rankin.psi_series") in parents
    assert ("rankin.psi_series", "rankin.psi_component") in parents
    assert ("rankin.psi_component", "rankin.EvaluationMode.schur") in parents
    assert t.counts["rankin.xi.stabilized"] in (0, 1)
    assert t.counts["whittaker.spherical_so_data.weights"] >= 1


def test_cold_cache_guard_rejects_a_warm_cache():
    @functools.cache
    def cached(x):
        return x

    fake = types.SimpleNamespace(cached=cached)
    child.cold_cache_guard(fake)
    cached(1)
    with pytest.raises(SystemExit):
        child.cold_cache_guard(fake)


def test_tail_percentile_keeps_ten_cases_beyond():
    assert run.tail_percentile(120) == 90.0
    assert run.tail_percentile(3000) == 99.0
    assert run.tail_percentile(54) == 75.0
    values = sorted(float(i) for i in range(1, 121))
    assert run.percentile(values, 90.0) == 108.0
    assert run.percentile(values, 50.0) == 60.0
    assert run.percentile(values, 99.0) == 119.0


def test_fingerprint_ignores_only_elapsed_time():
    report = {"suite": "s", "cases": [{"case": "a", "verdict": "pass", "elapsed_ms": 1.0}]}
    slower = {"suite": "s", "cases": [{"case": "a", "verdict": "pass", "elapsed_ms": 9.0}]}
    failed = {"suite": "s", "cases": [{"case": "a", "verdict": "fail", "elapsed_ms": 1.0}]}
    assert workloads.fingerprint(report) == workloads.fingerprint(slower)
    assert workloads.fingerprint(report) != workloads.fingerprint(failed)
