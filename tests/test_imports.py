"""``import repro`` is lazy, and the service never loads the batch stack.

The package root loads each subpackage on first access (PEP 562), so
the service's import chain stops at what it uses: no scipy, no
analysis, statistics or simulation layers.  Each check runs in a
fresh interpreter, because this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
        check=True,
    )
    return result.stdout


def loaded_after(statement: str) -> list[str]:
    out = run_python(
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return json.loads(out)


def test_service_import_chain_loads_no_batch_stack():
    loaded = loaded_after("import repro.serve.__main__")
    assert "repro.serve.runner" in loaded
    banned = ("scipy", "repro.analysis", "repro.stats", "repro.simulation")
    offenders = [
        name for name in loaded
        if any(name == b or name.startswith(b + ".") for b in banned)
    ]
    assert offenders == []


def test_bare_import_loads_no_subpackage():
    loaded = loaded_after("import repro")
    assert not [name for name in loaded if name.startswith("repro.")]


def test_subpackages_load_on_first_access():
    out = run_python(
        "import repro\n"
        "print(repro.core.classify_series.__module__)\n"
        "print(repro.__version__)\n"
        "print(sorted(set(repro.__all__) - set(dir(repro))))\n"
    )
    assert out.split("\n")[:3] == ["repro.core.classify", "1.0.0", "[]"]


def test_readme_quickstart_imports():
    run_python(
        "from repro import net, probing, core\n"
        "from repro import *\n"
        "assert analysis.__name__ == 'repro.analysis'\n"
        "from repro.core import BatchConfig, BatchRunner, PoolRunner\n"
        "from repro.stream import StreamConfig, StreamEngine, ListSink\n"
        "from repro.stream import batch_window_report\n"
        "from repro.obs import MetricsRegistry, Tracer, prometheus_text\n"
        "from repro.faults import FaultConfig\n"
        "assert callable(net.parse_block) and callable(core.measure_block)\n"
        "assert probing.RoundSchedule.for_days(1) is not None\n"
    )


def test_unknown_attribute_still_raises():
    out = run_python(
        "import repro\n"
        "try:\n"
        "    repro.nonexistent\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    )
    assert "nonexistent" in out
