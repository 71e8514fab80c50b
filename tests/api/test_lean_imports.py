"""Each entry point imports only the layers it runs; the lazily bound
package names still resolve exactly as eager imports did."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: Statements run in a fresh interpreter, with modules that must not load.
ENTRY_POINTS = {
    "report": (
        "import repro.experiments._engine, repro.experiments.report",
        ("repro.api", "repro.service", "repro.store.http",
         "repro.store.tiered", "repro.modelcheck", "repro.coherence.snapshot",
         "repro.obs.events", "importlib.metadata", "http.client", "ssl",
         "numpy")),
    "version": (
        "import runpy, sys\n"
        "sys.argv = ['repro', '--version']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass",
        ("repro.system", "repro.coherence", "repro.trace")),
    "api-run": (
        "from repro.api import run, simulate",
        ("repro.service", "repro.store.http")),
    "submit": (
        "from repro.cli import _submit_specs, build_parser\n"
        "_submit_specs(build_parser().parse_args(\n"
        "    ['submit', '--workloads', 'histogram']))\n"
        "from repro.service.client import ServiceClient",
        ("repro.experiments", "repro.system", "repro.coherence",
         "repro.trace")),
}


def _fresh(code: str) -> list:
    """The JSON list ``code`` prints last, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_no_unused_layer(entry):
    statement, absent = ENTRY_POINTS[entry]
    loaded = _fresh(f"{statement}\n"
                    "import json, sys\n"
                    "print(json.dumps(sorted(sys.modules)))")
    unwanted = [name for name in loaded
                if any(name == a or name.startswith(a + ".")
                       for a in absent)]
    assert unwanted == []


def test_pool_worker_imports_nothing_the_engine_did_not(tmp_path):
    """Workers fork from the engine's image, so a chunk -- trace build,
    pack, every protocol, a MESI block size -- compiles no module."""
    new = _fresh(
        "import json, os, sys\n"
        f"os.environ['REPRO_TRACE_CACHE_DIR'] = {str(tmp_path)!r}\n"
        "import repro.experiments._engine as engine\n"
        "from repro.common.params import ProtocolKind\n"
        "specs = [engine.RunSpec('kmeans', kind, cores=4, per_core=40)\n"
        "         for kind in ProtocolKind]\n"
        "specs.append(engine.RunSpec('kmeans', ProtocolKind.MESI,\n"
        "                            block_bytes=32, cores=4, per_core=40))\n"
        "before = set(sys.modules)\n"
        "engine._worker_run_chunk([spec.payload() for spec in specs])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert [name for name in new if name.startswith("repro")] == []


#: Bound names with no ``__module__`` to name their home.
DATA_HOMES = {"WORKLOADS": "repro.trace.workloads",
              "PROTOCOL_NAMES": "repro.common.params"}


@pytest.mark.parametrize("name", sorted(api.__all__))
def test_name_resolves_to_its_defining_modules_object(name):
    value = getattr(api, name)
    home = importlib.import_module(DATA_HOMES.get(name) or value.__module__)
    assert getattr(home, name) is value
    assert getattr(repro, name) is value


def test_top_level_all_is_the_api_plus_version():
    assert set(repro.__all__) == set(api.__all__) | {"__version__"}


@pytest.mark.parametrize("package", [
    "repro", "repro.api", "repro.coherence", "repro.obs", "repro.resilience",
    "repro.service", "repro.store"])
def test_lazy_package_surface(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_snapshot_function_stays_bound_over_its_module():
    import repro.coherence as coherence
    from repro.common.params import ProtocolKind, SystemConfig
    from repro.system.machine import build_protocol

    protocol = build_protocol(SystemConfig(protocol=ProtocolKind.MESI,
                                           cores=2))
    protocol.restore_state(protocol.snapshot_state())
    module = sys.modules["repro.coherence.snapshot"]
    assert coherence.snapshot is module.snapshot
