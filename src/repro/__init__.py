"""repro — reproduction of "When the Internet Sleeps" (IMC 2014).

The package reimplements the paper's full stack: a Trinocular-style
adaptive prober over simulated /24 blocks, EWMA block-availability
estimators, FFT-based diurnal detection with phase analysis, and the
geolocation / AS / link-type / economics substrates used to correlate
diurnal behaviour with external factors.

Quick start::

    import numpy as np
    from repro import net, probing, core

    behavior = net.merge_behaviors(
        net.make_always_on(50), net.make_diurnal(100, phase_s=8 * 3600)
    )
    block = net.Block24(net.parse_block("27.186.9/24"), behavior)
    schedule = probing.RoundSchedule.for_days(14)
    result = core.measure_block(block, schedule, np.random.default_rng(0))
    print(result.report.label)   # DiurnalClass.STRICT

Subpackages load on first access (PEP 562): ``import repro`` is cheap,
and ``repro.core`` or ``from repro import net`` imports just what it
names, so the streaming service never pays for scipy or the analysis
layers it does not use.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = (
    "analysis",
    "asn",
    "core",
    "datasets",
    "geo",
    "linktype",
    "net",
    "probing",
    "simulation",
    "stats",
    "stream",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        # import_module binds the submodule on this package, so the
        # next access is a plain attribute lookup.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBPACKAGES})
