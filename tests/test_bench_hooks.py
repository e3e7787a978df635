"""The benchmark tracer still finds every package name it hooks.

``bench/tracing.py`` patches names where the package uses them
(``tclkraus.tcl.integrate_array``, ``tclkraus.scenario.damping_term``, ...).
A refactor that moves or unbinds one of them makes the tracer skip it
silently; this check turns that into a tier-1 failure.
"""

import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")


def test_tracer_hooks_all_bound(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
